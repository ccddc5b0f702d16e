package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// sweep runs point(0) … point(n-1) on up to GOMAXPROCS goroutines and
// returns once every started point has returned. A point must build its
// own rig, engine and seeds and write only its own result slot; then the
// points cannot see each other and each one's output is what a serial run
// gives. After a point panics no further points start, and the panic is
// re-raised on the caller with the point's index and stack.
func sweep(n int, point func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		next     atomic.Int64
		failOnce sync.Once
		failure  any
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				failOnce.Do(func() {
					failure = fmt.Sprintf("sweep point %d: %v\n\n%s", i, r, debug.Stack())
				})
				failed.Store(true)
			}
		}()
		point(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// addSweep runs n points through sweep, each adding its rows to a table
// of its own, then appends those rows to t in point order, so the table
// reads the same however the points were scheduled.
func (t *Table) addSweep(n int, point func(i int, rows *Table)) {
	parts := make([]Table, n)
	sweep(n, func(i int) { point(i, &parts[i]) })
	for i := range parts {
		t.Rows = append(t.Rows, parts[i].Rows...)
	}
}
