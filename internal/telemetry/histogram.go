package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed upper-bound buckets (the
// Prometheus "le" convention: bucket i counts observations <=
// bounds[i], plus an implicit +Inf bucket). Buckets are fixed at
// creation — the service uses log-scale ladders from ExpBuckets — so
// Observe is lock-free: one atomic add on the bucket counter and a CAS
// loop on the float64 sum. Safe for concurrent use.
type Histogram struct {
	bounds  []float64       // ascending finite upper bounds
	counts  []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; all larger values land in
	// the trailing +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counts returns a snapshot of the per-bucket counts (last entry is
// +Inf) — non-cumulative; the Prometheus encoder accumulates.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// ExpBuckets builds n log-spaced upper bounds: start, start*factor,
// start*factor^2, ... It panics on a non-positive start, a factor <= 1
// or n < 1 — bucket ladders are static configuration, not runtime
// input.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
