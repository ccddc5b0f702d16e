package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reflex-go/reflex/internal/hist"
)

// procSample is one reading of the process's own counters.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user+sys
	maxRSS  int64         // peak resident set so far, bytes
	mallocs uint64
	gcCPU   float64 // cumulative GC CPU seconds
	heapObj uint64
	opsAll  int64
	opsMain int64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readProc() procSample {
	var ru syscall.Rusage
	s := procSample{at: time.Now()}
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSS = ru.Maxrss << 10 // Linux reports KiB
	}
	ms := make([]metrics.Sample, len(runtimeMetrics))
	copy(ms, runtimeMetrics)
	metrics.Read(ms)
	s.mallocs = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.heapObj = ms[2].Value.Uint64()
	return s
}

// meter splits a measured run into equal windows. Each window keeps its
// own latency samples and the process counters at its edges, so every
// end-to-end figure is a median over windows: a GC pause or a noisy
// neighbour spoils one window, not the run.
type meter struct {
	start   time.Time
	end     time.Time
	win     time.Duration
	lat     windows      // op_p50_us samples, and op_p90_us unless tail is set; one writer
	tail    windows      // op_p90_us samples where they differ (qos_tenants); one writer
	samples []procSample // at start and at each window edge

	opsAll  atomic.Int64 // completed ops of any kind
	opsMain atomic.Int64 // completed ops the throughput metric counts

	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64 // reads that returned bytes other than expected
	nospace   atomic.Int64 // writes refused with StatusNoCapacity
	otherErr  atomic.Int64

	wrongLog []string // the first few wrong reads, for the info line

	// Whole-run client latency by op (per-layer figures); guarded by mu
	// because qos_tenants records from many goroutines.
	mu    sync.Mutex
	reads hist.Hist
	write hist.Hist

	done chan struct{} // closed when the sampler has taken its last sample
}

// newMeter splits seconds into one-second windows (at least five).
func newMeter(seconds float64) *meter {
	n := max(5, int(seconds+0.5))
	d := time.Duration(seconds * float64(time.Second))
	return &meter{win: d / time.Duration(n), lat: make(windows, n), done: make(chan struct{})}
}

// begin starts the clock and the edge sampler; the sampler goroutine
// exits when the last window closes.
func (m *meter) begin() {
	m.samples = append(m.samples[:0], readProc())
	m.start = m.samples[0].at
	m.end = m.start.Add(m.win * time.Duration(len(m.lat)))
	go func() {
		defer close(m.done)
		for k := 1; k <= len(m.lat); k++ {
			time.Sleep(time.Until(m.start.Add(m.win * time.Duration(k))))
			s := readProc()
			s.opsAll, s.opsMain = m.opsAll.Load(), m.opsMain.Load()
			m.samples = append(m.samples, s)
		}
	}()
}

// finish waits for the sampler; the samples are safe to read afterwards.
func (m *meter) finish() {
	<-m.done
}

// over reports whether the measured period has ended.
func (m *meter) over(now time.Time) bool { return !now.Before(m.end) }

// recordMain adds one op_p50_us sample completed at now.
func (m *meter) recordMain(now time.Time, lat time.Duration) {
	m.lat.add(m.window(now), lat)
}

// recordTail adds one op_p90_us sample completed at now; only workloads
// that split the two call it.
func (m *meter) recordTail(now time.Time, lat time.Duration) {
	m.tail.add(m.window(now), lat)
}

// window is the index of the window now falls in (out of range outside
// the measured period).
func (m *meter) window(now time.Time) int { return int(now.Sub(m.start) / m.win) }

// noteWrong counts a read that returned wrong bytes and keeps the first
// few descriptions.
func (m *meter) noteWrong(block uint32, got []byte, want string) {
	m.wrong.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.wrongLog) < 8 {
		seq, ok := unstamp(got, lba(block))
		m.wrongLog = append(m.wrongLog, fmt.Sprintf("block %d: got seq %d (intact %v, %d bytes), want %s",
			block, seq, ok, len(got), want))
	}
}

func (m *meter) recordOp(write bool, lat time.Duration) {
	m.mu.Lock()
	if write {
		m.write.Record(int64(lat))
	} else {
		m.reads.Record(int64(lat))
	}
	m.mu.Unlock()
}

// windowed applies f to each complete window's edge samples.
func (m *meter) windowed(f func(a, b procSample) (float64, bool)) []float64 {
	var out []float64
	for i := 1; i < len(m.samples); i++ {
		if v, ok := f(m.samples[i-1], m.samples[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// opsPerSec is the median over windows of completed main ops per second.
func (m *meter) opsPerSec() float64 {
	return median(m.windowed(func(a, b procSample) (float64, bool) {
		return float64(b.opsMain-a.opsMain) / b.at.Sub(a.at).Seconds(), true
	}))
}

// cpuPerOp is the median over windows of process CPU µs per completed op.
func (m *meter) cpuPerOp() float64 {
	return median(m.windowed(func(a, b procSample) (float64, bool) {
		n := b.opsAll - a.opsAll
		return float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(n), n > 0
	}))
}

// p50 and p90 are op_p50_us and op_p90_us.
func (m *meter) p50() float64 { return m.lat.quantile(0.50) }

func (m *meter) p90() float64 {
	if m.tail != nil {
		return m.tail.quantile(0.90)
	}
	return m.lat.quantile(0.90)
}

// windows holds latency samples by the window they completed in, in
// nanoseconds saturating at 4.29 s: 4 bytes a sample keeps the load
// generator's share of mem_peak_mb small.
type windows [][]uint32

func (w windows) add(i int, lat time.Duration) {
	if i < 0 || i >= len(w) {
		return
	}
	if w[i] == nil && i > 0 {
		// Size a new window like the last one, so that growing it
		// leaves little garbage behind.
		w[i] = make([]uint32, 0, len(w[i-1])+len(w[i-1])/4)
	}
	w[i] = append(w[i], uint32(min(lat, math.MaxUint32)))
}

// quantile is the median over non-empty windows of each window's exact
// q-quantile, in µs. Exact rather than histogram quantiles: a bucketed
// figure would read the same on every run of a steady workload and hide
// small changes.
func (w windows) quantile(q float64) float64 {
	var xs []float64
	for _, s := range w {
		if len(s) > 0 {
			slices.Sort(s)
			xs = append(xs, float64(s[rank(len(s), q)])/1e3)
		}
	}
	return median(xs)
}

// rank is the nearest-rank index of the q-quantile among n sorted values.
func rank(n int, q float64) int {
	return max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
}

// samples is the number of samples in the windows.
func (w windows) samples() int {
	n := 0
	for _, s := range w {
		n += len(s)
	}
	return n
}

// memPeakMB is the process's peak resident set at the end of the run.
func (m *meter) memPeakMB() float64 {
	return float64(m.samples[len(m.samples)-1].maxRSS) / (1 << 20)
}

// procLayer returns the Go runtime's per-op figures over the whole run.
func (m *meter) procLayer() (allocsPerOp, gcFrac, heapPeakMB float64) {
	a, b := m.samples[0], m.samples[len(m.samples)-1]
	if n := b.opsAll - a.opsAll; n > 0 {
		allocsPerOp = float64(b.mallocs-a.mallocs) / float64(n)
	}
	if d := (b.cpu - a.cpu).Seconds(); d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	var peak uint64
	for _, s := range m.samples {
		if s.heapObj > peak {
			peak = s.heapObj
		}
	}
	return allocsPerOp, gcFrac, float64(peak) / (1 << 20)
}
