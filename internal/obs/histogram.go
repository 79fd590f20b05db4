package obs

import (
	"math"
	"sync/atomic"
)

// DefLatencyBuckets are the default histogram bounds for latency
// observations in seconds: log-spaced from 1µs to ~67s with a growth
// factor of 2 (27 bounds plus the implicit +Inf bucket). Wide enough
// for both sub-millisecond cache-served retrievals and multi-second
// simulated cluster scans, cheap enough to expose per operation.
var DefLatencyBuckets = expBuckets(1e-6, 2, 27)

// expBuckets returns n log-spaced bucket upper bounds starting at
// start and growing by factor (> 1) per bucket.
func expBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket distribution: counts per bucket, total
// count and sum, all maintained with atomics so Observe is lock-free
// and safe under the race detector. A nil *Histogram is valid and
// records nothing.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

// atomicFloat is an atomically updated float64 (CAS on the bit
// pattern; Add loops are uncontended enough at observation rates).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v (binary search over ~27 bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot captures the histogram's current state for the exposition.
// Buckets are read without a global lock, so a snapshot taken under
// concurrent Observe traffic is a consistent-enough view (each bucket
// individually exact); a quiesced histogram reads exactly.
func (h *Histogram) snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	out := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// HistSnapshot is an immutable copy of a histogram's state, as the
// Prometheus exposition renders it.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds (ascending, +Inf implicit).
	Bounds []float64
	// Counts holds per-bucket sample counts, one longer than Bounds
	// (the last is the +Inf overflow bucket). Non-cumulative.
	Counts []uint64
	// Count and Sum are the total sample count and value sum.
	Count uint64
	Sum   float64
}
