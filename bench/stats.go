package main

import (
	"math/bits"
	"sort"
)

// latHist is a log-linear latency histogram: exact below 128 ns, then 128
// sub-buckets per power of two (0.8% resolution) up to 2^40 ns. Observe
// allocates nothing, so every reply of a run is recorded, and quantiles
// interpolate inside their bucket, so a reported percentile carries all its
// digits rather than snapping to a bucket edge.
type latHist struct {
	counts [(maxOctave - subBits + 1) << subBits]uint32
	n      uint64
}

const (
	subBits   = 7
	maxOctave = 40
)

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	v = min(v, 1<<maxOctave-1)
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns a bucket's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := uint64(i&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *latHist) observe(ns int64) {
	h.counts[bucketOf(uint64(max(ns, 0)))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty histogram).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs (which it sorts) by
// the "exclusive" method, the default of Python's statistics.quantiles.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
