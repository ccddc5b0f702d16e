// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing scheduled events in
// timestamp order. Events scheduled for the same instant execute in the
// order they were scheduled, which makes every simulation in this
// repository fully deterministic for a given seed.
//
// Two execution styles are supported:
//
//   - Callback style: components schedule closures with At/After and react
//     to each other through those callbacks. The flash device, network and
//     dataplane models use this style.
//   - Process style: sequential code (an application such as the FIO tester
//     or the graph engine) runs on a Proc, which can Sleep in virtual time
//     and Park until an event Wakes it. Processes and the engine hand
//     control back and forth, so at most one of them runs at any moment and
//     determinism is preserved.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time = int64

// Convenient duration units, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Event is a scheduled closure. It can be cancelled before it fires.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 when not queued
	fn    func()
}

// Time reports when the event is scheduled to fire.
func (ev *Event) Time() Time { return ev.at }

// eventHeap is a binary min-heap of pending events ordered by (at, seq).
// Every event has a distinct seq, so the order is total and the pop order
// does not depend on how the heap is arranged. Each event records its
// slot in index so Cancel can remove it in O(log n).
type eventHeap []*Event

// before reports whether a fires ahead of b.
func before(a, b *Event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// up moves the event at slot j toward the root until its parent fires
// ahead of it.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[j] = h[p]
		h[j].index = j
		j = p
	}
	h[j] = ev
	ev.index = j
}

// down moves the event at slot i toward the leaves until it fires ahead
// of both children. It reports whether the event moved.
func (h eventHeap) down(i int) bool {
	ev, i0, n := h[i], i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes the event at slot i out of the heap.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i != n {
		old[i] = last
		last.index = i
		if !h.down(i) {
			h.up(i)
		}
	}
	ev.index = -1
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   eventHeap
	executed uint64
	procs    int // live processes, for leak detection
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (not yet executed) events.
func (e *Engine) Pending() int { return len(e.events) }

// Executed reports the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a bug in a simulation model.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.events.push(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now. A non-positive d runs
// the event at the current time, after all events already scheduled for the
// current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// (or was already cancelled) is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.events.remove(ev.index)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.remove(0)
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled for later instants remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
