package experiments

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSweepRunsEveryPointOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64} {
		runs := make([]atomic.Int32, n)
		sweep(n, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: point %d ran %d times", n, i, got)
			}
		}
	}
}

func TestSweepReraisesPointPanic(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "sweep point 3: boom") {
			t.Fatalf("recovered %v, want the panic of point 3", r)
		}
	}()
	sweep(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("sweep returned after a point panicked")
}

func TestAddSweepKeepsPointOrder(t *testing.T) {
	tbl := &Table{Columns: []string{"point", "row"}}
	tbl.addSweep(20, func(i int, rows *Table) {
		for j := 0; j < i%3; j++ {
			rows.Add(i, j)
		}
	})
	var want [][]string
	for i := 0; i < 20; i++ {
		for j := 0; j < i%3; j++ {
			want = append(want, []string{strconv.Itoa(i), strconv.Itoa(j)})
		}
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(want))
	}
	for i := range want {
		if strings.Join(tbl.Rows[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("row %d = %v, want %v", i, tbl.Rows[i], want[i])
		}
	}
}
