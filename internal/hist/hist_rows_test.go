package hist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseHist is the histogram as it was stored before rows were allocated
// lazily: one flat counter array. The property test checks Hist against it.
type denseHist struct {
	counts [majors * subBuckets]uint32
	count  uint64
	sum    int64
	min    int64
	max    int64
}

func (d *denseHist) recordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	d.counts[bucketOf(v)] += uint32(n)
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count += n
	d.sum += v * int64(n)
}

func (d *denseHist) quantile(q float64) int64 {
	if d.count == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	target := uint64(q * float64(d.count))
	if target >= d.count {
		target = d.count - 1
	}
	var cum uint64
	for idx, c := range d.counts {
		cum += uint64(c)
		if c != 0 && cum > target {
			return max(min(upperValue(idx), d.max), d.min)
		}
	}
	return d.max
}

func (d *denseHist) merge(o *denseHist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		d.counts[i] += c
	}
	if d.count == 0 || o.min < d.min {
		d.min = o.min
	}
	d.max = max(d.max, o.max)
	d.count += o.count
	d.sum += o.sum
}

func (d *denseHist) delta(prev *denseHist) *denseHist {
	if prev == nil || prev.count == 0 {
		c := *d
		return &c
	}
	out := &denseHist{count: d.count - prev.count, sum: d.sum - prev.sum}
	var lo, hi int64 = -1, 0
	for i := range d.counts {
		out.counts[i] = d.counts[i] - prev.counts[i]
		if out.counts[i] != 0 {
			if lo < 0 {
				lo = upperValue(i)
			}
			hi = upperValue(i)
		}
	}
	if out.count > 0 {
		out.max = min(hi, d.max)
		out.min = min(max(lo, d.min), out.max)
	}
	return out
}

func (d *denseHist) dump() string {
	var s string
	for idx, c := range d.counts {
		if c != 0 {
			s += fmt.Sprintf("<=%dns: %d\n", upperValue(idx), c)
		}
	}
	return s
}

// sameAsDense fails the test unless h reports what the dense reference
// does through every read method.
func sameAsDense(t *testing.T, what string, h *Hist, d *denseHist) {
	t.Helper()
	if h.Count() != d.count || h.Sum() != d.sum {
		t.Fatalf("%s: count/sum %d/%d, dense %d/%d", what, h.Count(), h.Sum(), d.count, d.sum)
	}
	if d.count > 0 && (h.Min() != d.min || h.Max() != d.max) {
		t.Fatalf("%s: min/max %d/%d, dense %d/%d", what, h.Min(), h.Max(), d.min, d.max)
	}
	if got, want := h.Dump(), d.dump(); got != want {
		t.Fatalf("%s: Dump differs:\n got %q\nwant %q", what, got, want)
	}
	for _, q := range []float64{-0.5, 1.5} { // Quantile clamps q; Quantiles does not
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, dense %d", what, q, got, want)
		}
	}
	qs := []float64{0, 0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	batch := h.Quantiles(qs)
	for i, q := range qs {
		want := d.quantile(q)
		if got := h.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, dense %d", what, q, got, want)
		}
		if batch[i] != want {
			t.Fatalf("%s: Quantiles[%v] = %d, dense %d", what, q, batch[i], want)
		}
	}
	ps := []float64{99, 50, 0, 100, 95, 99.9}
	for i, p := range h.Percentiles(ps) {
		if want := d.quantile(ps[i] / 100); p != want {
			t.Fatalf("%s: Percentiles[%v] = %d, dense %d", what, ps[i], p, want)
		}
	}
}

// randValue draws from every range the bucketing treats differently:
// negatives, zero, the exact small values below 64, ordinary latencies,
// and values past the 2^46 clamp.
func randValue(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return -1 - rng.Int63n(1000)
	case 1:
		return 0
	case 2:
		return rng.Int63n(subBuckets)
	case 3:
		return 1<<46 + rng.Int63n(1<<50)
	default:
		return rng.Int63n(1 << uint(7+rng.Intn(33)))
	}
}

// fillPair records the same random samples into a fresh Hist and a fresh
// dense reference.
func fillPair(rng *rand.Rand, n int) (*Hist, *denseHist) {
	h, d := New(), &denseHist{}
	for i := 0; i < n; i++ {
		v := randValue(rng)
		h.Record(v)
		d.recordN(v, 1)
	}
	return h, d
}

// TestRowsMatchDenseProperty drives a Hist and the dense reference
// through the same random Record, RecordN, Merge, Clone, Reset and Delta
// sequence and requires identical output after every trial.
func TestRowsMatchDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		h, d := New(), &denseHist{}
		var prev *Hist
		var prevD *denseHist
		for step := rng.Intn(400); step > 0; step-- {
			switch op := rng.Intn(40); {
			case op == 0:
				o, od := fillPair(rng, rng.Intn(50))
				h.Merge(o)
				d.merge(od)
			case op == 1:
				prev, prevD = h.Clone(), &denseHist{}
				*prevD = *d
			case op == 2 && rng.Intn(4) == 0:
				h.Reset()
				d = &denseHist{}
				prev, prevD = nil, nil
			case op < 6:
				v, n := randValue(rng), uint64(rng.Intn(5))
				h.RecordN(v, n)
				d.recordN(v, n)
			default:
				v := randValue(rng)
				h.Record(v)
				d.recordN(v, 1)
			}
		}
		sameAsDense(t, fmt.Sprintf("trial %d", trial), h, d)
		sameAsDense(t, fmt.Sprintf("trial %d clone", trial), h.Clone(), d)
		sameAsDense(t, fmt.Sprintf("trial %d delta", trial), h.Delta(prev), d.delta(prevD))
	}
}

// TestCloneMutationLeavesSource checks that a clone owns its rows: writes
// into a row the source also holds must not reach the source.
func TestCloneMutationLeavesSource(t *testing.T) {
	h := New()
	for _, v := range []int64{3, 100, 5000, 1 << 30} {
		h.Record(v)
	}
	want := h.Dump()
	c := h.Clone()
	for _, v := range []int64{3, 101, 5001, 1 << 30, 1 << 40} {
		c.Record(v)
	}
	c.Merge(h)
	c.Reset()
	if got := h.Dump(); got != want || h.Count() != 4 {
		t.Fatalf("source changed by clone mutation:\n got %q\nwant %q", got, want)
	}
}

// TestRecordIntoExistingRowAllocatesNothing pins the hot-path promise:
// once a value's row exists, Record and RecordN allocate nothing.
func TestRecordIntoExistingRowAllocatesNothing(t *testing.T) {
	h := New()
	h.Record(1024) // creates the row holding 1024..2047
	v := int64(1024)
	if n := testing.AllocsPerRun(1000, func() { v = 1024 + (v+1)%1024; h.Record(v) }); n != 0 {
		t.Errorf("Record into an existing row allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordN(1500, 3) }); n != 0 {
		t.Errorf("RecordN into an existing row allocates %v per op", n)
	}
}
