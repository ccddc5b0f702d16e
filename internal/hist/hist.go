// Package hist provides a bounded-memory, log-bucketed latency histogram in
// the spirit of HDR histograms. Recording is O(1) and allocation-free once
// the value's row exists; quantiles are approximate with a relative error
// bounded by the sub-bucket resolution (<2% with the default 64
// sub-buckets per power of two), which is far below the run-to-run
// variance of the experiments that use it.
//
// All values are durations in nanoseconds, matching the sim package.
package hist

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

const (
	subBits    = 6 // sub-buckets per power of two: 64
	subBuckets = 1 << subBits
	majors     = 40 // covers up to ~2^(40+6) ns ≈ 19 hours
)

// Hist is a latency histogram. The zero value is ready to use.
//
// Buckets are stored as one row of subBuckets counters per power of two,
// allocated the first time a value lands in that row, so a histogram that
// records a few samples (a lightly loaded simulated tenant) stays small.
type Hist struct {
	rows  [majors]*[subBuckets]uint32
	count uint64
	sum   int64
	min   int64
	max   int64
}

// New returns an empty histogram.
func New() *Hist {
	return &Hist{}
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// major = position of the highest set bit above the sub-bucket field.
	major := bits.Len64(uint64(v)) - 1 - subBits
	sub := int(v >> uint(major) & (subBuckets - 1))
	idx := (major+1)*subBuckets + sub
	if idx >= majors*subBuckets {
		idx = majors*subBuckets - 1
	}
	return idx
}

// bucket returns the counter for bucket idx, allocating its row on first
// use.
func (h *Hist) bucket(idx int) *uint32 {
	r := h.rows[idx>>subBits]
	if r == nil {
		r = new([subBuckets]uint32)
		h.rows[idx>>subBits] = r
	}
	return &r[idx&(subBuckets-1)]
}

// each calls fn for every non-empty bucket in ascending order until fn
// returns false.
func (h *Hist) each(fn func(idx int, c uint32) bool) {
	for ri, r := range h.rows {
		if r == nil {
			continue
		}
		for si, c := range r {
			if c != 0 && !fn(ri<<subBits|si, c) {
				return
			}
		}
	}
}

// Record adds one sample. It allocates only when v is the first value in
// its row.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	*h.bucket(bucketOf(v))++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// RecordN adds n identical samples.
func (h *Hist) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	*h.bucket(bucketOf(v)) += uint32(n)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * int64(n)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 if empty).
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Hist) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of recorded samples (0 if empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper-bound estimate for quantile q in [0, 1].
// Quantile(0.95) is the p95. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	out := h.max
	var cum uint64
	h.each(func(idx int, c uint32) bool {
		cum += uint64(c)
		if cum > target {
			out = h.clamp(upperValue(idx))
			return false
		}
		return true
	})
	return out
}

// clamp bounds a bucket's upper value by the recorded min and max.
func (h *Hist) clamp(u int64) int64 {
	if u > h.max {
		u = h.max
	}
	if u < h.min {
		u = h.min
	}
	return u
}

// upperValue returns the largest value that maps into bucket idx.
func upperValue(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	major := idx/subBuckets - 1
	sub := int64(idx % subBuckets)
	lo := (sub | subBuckets) << uint(major)
	hi := lo + (int64(1) << uint(major)) - 1
	return hi
}

// Merge adds all samples of other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.count == 0 {
		return
	}
	for ri, r := range other.rows {
		if r == nil {
			continue
		}
		if h.rows[ri] == nil {
			h.rows[ri] = new([subBuckets]uint32)
		}
		dst := h.rows[ri]
		for si, c := range r {
			dst[si] += c
		}
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset clears all recorded samples, keeping the allocated rows for reuse.
func (h *Hist) Reset() {
	for _, r := range h.rows {
		if r != nil {
			*r = [subBuckets]uint32{}
		}
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Snapshot is a compact summary of a histogram.
type Snapshot struct {
	Count uint64
	Mean  float64
	Min   int64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
	Max   int64
}

// Snapshot returns the standard summary.
func (h *Hist) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String formats the snapshot with microsecond units, the natural scale for
// flash latencies.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus",
		s.Count, s.Mean/1000, float64(s.P50)/1000, float64(s.P95)/1000,
		float64(s.P99)/1000, float64(s.Max)/1000)
}

// Quantiles returns estimates for several quantiles at once, more cheaply
// than repeated Quantile calls. qs must be sorted ascending.
func (h *Hist) Quantiles(qs []float64) []int64 {
	if !sort.Float64sAreSorted(qs) {
		panic("hist: Quantiles requires sorted input")
	}
	out := make([]int64, len(qs))
	if h.count == 0 {
		return out
	}
	var cum uint64
	qi := 0
	h.each(func(idx int, c uint32) bool {
		cum += uint64(c)
		for qi < len(qs) {
			target := uint64(qs[qi] * float64(h.count))
			if target >= h.count {
				target = h.count - 1
			}
			if cum <= target {
				break
			}
			out[qi] = h.clamp(upperValue(idx))
			qi++
		}
		return qi < len(qs)
	})
	for ; qi < len(qs); qi++ {
		out[qi] = h.max
	}
	return out
}

// Percentiles returns estimates for several percentiles given on the
// [0, 100] scale, in the input's order. Unlike Quantiles, the input need
// not be sorted; the result for Percentiles([]float64{50, 95, 99}) matches
// Quantile(0.50), Quantile(0.95), Quantile(0.99).
func (h *Hist) Percentiles(ps []float64) []int64 {
	qs := make([]float64, len(ps))
	order := make([]int, len(ps))
	for i, p := range ps {
		qs[i] = p / 100
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qs[order[a]] < qs[order[b]] })
	sorted := make([]float64, len(ps))
	for i, oi := range order {
		sorted[i] = qs[oi]
	}
	vals := h.Quantiles(sorted)
	out := make([]int64, len(ps))
	for i, oi := range order {
		out[oi] = vals[i]
	}
	return out
}

// Clone returns an independent copy of the histogram.
func (h *Hist) Clone() *Hist {
	c := *h
	for i, r := range h.rows {
		if r != nil {
			row := *r
			c.rows[i] = &row
		}
	}
	return &c
}

// Delta returns a histogram holding the samples recorded in h since prev
// was captured. prev must be an earlier snapshot (Clone) of the same
// histogram; a nil prev returns a copy of h. Min/max of the delta are
// bounded by the cumulative min/max, which is the best a bucketed
// histogram can reconstruct; quantiles of the interval are exact to bucket
// resolution.
func (h *Hist) Delta(prev *Hist) *Hist {
	if prev == nil || prev.count == 0 {
		return h.Clone()
	}
	d := &Hist{}
	var lo, hi int64 = -1, 0
	for ri, r := range h.rows {
		if r == nil {
			continue
		}
		p := prev.rows[ri]
		for si, c := range r {
			if p != nil {
				c -= p[si]
			}
			if c == 0 {
				continue
			}
			idx := ri<<subBits | si
			*d.bucket(idx) = c
			u := upperValue(idx)
			if lo < 0 {
				lo = u
			}
			hi = u
		}
	}
	d.count = h.count - prev.count
	d.sum = h.sum - prev.sum
	if d.count > 0 {
		d.min = lo
		if d.min < h.min {
			d.min = h.min
		}
		d.max = hi
		if d.max > h.max {
			d.max = h.max
		}
		if d.min > d.max {
			d.min = d.max
		}
	}
	return d
}

// Dump renders a human-readable bucket listing for debugging, with one line
// per non-empty bucket.
func (h *Hist) Dump() string {
	var b strings.Builder
	h.each(func(idx int, c uint32) bool {
		fmt.Fprintf(&b, "<=%dns: %d\n", upperValue(idx), c)
		return true
	})
	return b.String()
}
