package sim

import (
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestEngineAfterZeroRunsAtNow(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, func() {
		e.After(0, func() {
			if e.Now() != 100 {
				t.Errorf("After(0) ran at %d, want 100", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("After(0) event never ran")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(10, func() {
		e.After(-5, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(10*(i+1)), func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four events", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

func TestEventTime(t *testing.T) {
	e := NewEngine()
	ev := e.At(42, func() {})
	if ev.Time() != 42 {
		t.Fatalf("Time = %d, want 42", ev.Time())
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(1)
	var last Time = -1
	n := 0
	for i := 0; i < 10000; i++ {
		at := rng.Int63n(1_000_000)
		e.At(at, func() {
			if e.Now() < last {
				t.Errorf("time went backwards: %d after %d", e.Now(), last)
			}
			last = e.Now()
			n++
		})
	}
	e.Run()
	if n != 10000 {
		t.Fatalf("executed %d events, want 10000", n)
	}
}

// TestEngineHeapMatchesSortedReference pushes, pops and cancels events at
// random, including events scheduled from inside running events and many
// ties on one instant, and checks every pop against a reference kept
// sorted by (time, scheduling order).
func TestEngineHeapMatchesSortedReference(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		type pending struct {
			ev *Event
			id int
		}
		var ref []pending // sorted by (Time, id); ids grow with scheduling order
		insert := func(p pending) {
			i := len(ref)
			for i > 0 && (ref[i-1].ev.at > p.ev.at || ref[i-1].ev.at == p.ev.at && ref[i-1].id > p.id) {
				i--
			}
			ref = append(ref, pending{})
			copy(ref[i+1:], ref[i:])
			ref[i] = p
		}
		nextID, fired := 0, -1
		var schedule func()
		schedule = func() {
			id := nextID
			nextID++
			// A narrow time range forces many same-instant ties.
			at := e.Now() + rng.Int63n(int64(1+rng.Intn(50)))
			ev := e.At(at, func() {
				fired = id
				if rng.Intn(3) == 0 && nextID < 5000 {
					schedule()
				}
			})
			insert(pending{ev, id})
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				schedule()
			case r < 7 && len(ref) > 0:
				i := rng.Intn(len(ref))
				e.Cancel(ref[i].ev)
				e.Cancel(ref[i].ev) // a second cancel is a no-op
				ref = append(ref[:i], ref[i+1:]...)
			case len(ref) > 0:
				want := ref[0]
				ref = ref[1:]
				if !e.Step() {
					t.Fatalf("trial %d: Step found no event, reference holds %d", trial, len(ref)+1)
				}
				if fired != want.id || e.Now() != want.ev.at {
					t.Fatalf("trial %d: fired event %d at %d, want %d at %d",
						trial, fired, e.Now(), want.id, want.ev.at)
				}
				e.Cancel(want.ev) // cancelling a fired event is a no-op
			}
			if e.Pending() != len(ref) {
				t.Fatalf("trial %d: %d pending, reference holds %d", trial, e.Pending(), len(ref))
			}
		}
	}
}
