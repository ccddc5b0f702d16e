// Package obs is the unified telemetry layer shared by the simulated
// dataplane and the real TCP server: a labeled metrics registry
// (counters, gauges, histograms backed by internal/hist) with a hot path
// that is allocation-free once a histogram value's row exists, a
// time-series sampler that runs off either the simulation clock or a
// wall-clock ticker, per-request span tracing with a bounded ring buffer
// and a top-K slow-request log, and exposition in Prometheus text format,
// expvar and JSON snapshots.
//
// Design rules:
//
//   - Registration is the slow path: it takes a mutex and allocates. It
//     returns a typed handle (*Counter, *Gauge, *Histogram) whose hot-path
//     operations (Inc, Add, Set, Record) are safe for concurrent use and
//     allocation-free, Record once the value's row exists.
//   - Read-side functions (CounterFunc, GaugeFunc) expose existing
//     single-writer state — the simulator's plain counters — without
//     touching the hot path at all. They are evaluated only at exposition
//     or sampling time; callers whose state is goroutine-confined must only
//     expose it on registries scraped from that goroutine's context (the
//     simulation engine), or read atomics.
//   - The clock is pluggable so the same API serves virtual time
//     (sim.Engine.Now) and wall-clock time (time.Now) — registries embedded
//     in the simulated dataplane timestamp samples in nanoseconds of
//     virtual time, the real server in nanoseconds since start.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/reflex-go/reflex/internal/hist"
)

// Kind is a metric family's type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a latency distribution (internal/hist).
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Label is one name/value pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// desc identifies one child metric inside a family.
type desc struct {
	name   string
	labels []Label
}

func (d *desc) labelKey() string {
	if len(d.labels) == 0 {
		return ""
	}
	s := ""
	for _, l := range d.labels {
		s += l.Key + "\x00" + l.Value + "\x00"
	}
	return s
}

// Counter is a monotonically increasing counter. The zero value is usable
// but unregistered; obtain counters from a Registry.
type Counter struct {
	desc
	v  atomic.Uint64
	fn func() float64 // read-side counter when non-nil
}

// Inc adds 1. Allocation-free and safe for concurrent use.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count. Function-backed counters evaluate the
// function.
func (c *Counter) Value() float64 {
	if c.fn != nil {
		return c.fn()
	}
	return float64(c.v.Load())
}

// Gauge is an integer gauge (levels, depths, balances).
type Gauge struct {
	desc
	v  atomic.Int64
	fn func() float64
}

// Set stores v. Allocation-free and safe for concurrent use.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level. Function-backed gauges evaluate the
// function.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return float64(g.v.Load())
}

// Histogram is a concurrency-safe latency histogram. Record is
// allocation-free once the value's row exists; the mutex is uncontended in the single-threaded
// simulator and cheap relative to a syscall-bearing request path in the
// real server.
type Histogram struct {
	desc
	mu sync.Mutex
	h  hist.Hist
}

// Record adds one sample (nanoseconds).
func (h *Histogram) Record(v int64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// Snapshot returns the histogram summary.
func (h *Histogram) Snapshot() hist.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Snapshot()
}

// Clone returns a copy of the underlying histogram (for windowed deltas).
func (h *Histogram) Clone() *hist.Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// Quantile returns the cumulative quantile estimate.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// family groups children sharing a metric name.
type family struct {
	name     string
	help     string
	kind     Kind
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	seen     map[string]struct{} // name+labelKey dedup
	clock    func() int64
}

// NewRegistry returns an empty registry whose clock reports zero until
// SetClock is called.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		seen:     make(map[string]struct{}),
		clock:    func() int64 { return 0 },
	}
}

// SetClock installs the registry's time source (nanoseconds). Simulated
// components pass the engine clock; the real server passes nanoseconds
// since start.
func (r *Registry) SetClock(clock func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if clock != nil {
		r.clock = clock
	}
}

// Now returns the registry clock's current time in nanoseconds.
func (r *Registry) Now() int64 {
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c()
}

func (r *Registry) register(name, help string, kind Kind, labels []Label) *family {
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, fam.kind))
	}
	d := desc{name: name, labels: labels}
	key := name + "\x00" + d.labelKey()
	if _, dup := r.seen[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q %v", name, labels))
	}
	r.seen[key] = struct{}{}
	return fam
}

// Counter registers (or extends a family with) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.register(name, help, KindCounter, labels)
	c := &Counter{desc: desc{name: name, labels: labels}}
	fam.counters = append(fam.counters, c)
	return c
}

// CounterFunc registers a read-side counter whose value is computed by fn
// at exposition time. Used to expose existing single-writer counters (the
// simulator's plain uint64 fields) with zero hot-path overhead.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.register(name, help, KindCounter, labels)
	c := &Counter{desc: desc{name: name, labels: labels}, fn: fn}
	fam.counters = append(fam.counters, c)
	return c
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.register(name, help, KindGauge, labels)
	g := &Gauge{desc: desc{name: name, labels: labels}}
	fam.gauges = append(fam.gauges, g)
	return g
}

// GaugeFunc registers a read-side gauge computed by fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.register(name, help, KindGauge, labels)
	g := &Gauge{desc: desc{name: name, labels: labels}, fn: fn}
	fam.gauges = append(fam.gauges, g)
	return g
}

// Histogram registers a histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.register(name, help, KindHistogram, labels)
	h := &Histogram{desc: desc{name: name, labels: labels}}
	fam.hists = append(fam.hists, h)
	return h
}

// LookupValue returns the current value of the metric with the given name
// and labels (first match), or false. Primarily a test and sampler helper.
func (r *Registry) LookupValue(name string, labels ...Label) (float64, bool) {
	r.mu.Lock()
	fam, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	match := func(d *desc) bool {
		if len(labels) != len(d.labels) {
			return false
		}
		for i := range labels {
			if labels[i] != d.labels[i] {
				return false
			}
		}
		return true
	}
	for _, c := range fam.counters {
		if match(&c.desc) {
			return c.Value(), true
		}
	}
	for _, g := range fam.gauges {
		if match(&g.desc) {
			return g.Value(), true
		}
	}
	return 0, false
}

// visit walks families in registration order.
func (r *Registry) visit(fn func(*family)) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		fn(f)
	}
}

// sortedLabels renders labels deterministically for exposition.
func sortedLabels(ls []Label) []Label {
	if sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key }) {
		return ls
	}
	out := append([]Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
