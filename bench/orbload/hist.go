package main

import "math/bits"

// hist is a log-bucketed latency histogram over nanosecond values: values
// below 128 get exact buckets, and every octave above is split into 128
// equal sub-buckets, so a bucket is never wider than 1/128 of its lower bound
// and reporting its midpoint is off by at most 0.4 % (the issue asks ≤ 1 %).
// Memory is fixed (15 KiB) however many samples arrive, and two histograms
// merge by adding counts — each caller owns one and the driver merges them
// after the run, so the hot path takes no lock.
type hist struct {
	counts [histBuckets]uint32 // a run records far fewer than 2^32 samples
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values at or above 2^36 ns (69 s) clamp into the last bucket; no
	// operation of a run that lasts at most 60 s can get there.
	histMaxExp  = 36
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// bucketRange returns the lowest value bucket i holds and how many values
// wide it is.
func bucketRange(i int) (lower, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(int64(histSub+i%histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at rank ceil(q·n), the same sample a sorted
// slice would give, placed inside its bucket by the rank's position among
// the bucket's samples (so the result is not quantised to bucket edges);
// 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c32 := range h.counts {
		c := uint64(c32)
		cum += c
		if cum >= rank {
			lower, width := bucketRange(i)
			return lower + width*(float64(rank-(cum-c))-0.5)/float64(c)
		}
	}
	return float64(h.max)
}

// above counts the samples in buckets beyond v's own.
func (h *hist) above(v int64) uint64 {
	var n uint64
	for _, c := range h.counts[bucketOf(v)+1:] {
		n += uint64(c)
	}
	return n
}

// tail returns the highest of p50/p90/p99/p99.9 not above q that still has
// at least ten samples beyond it, and which one that was: a percentile with
// fewer samples behind it is one slow operation, not a distribution.
func (h *hist) tail(q float64) (value, used float64) {
	used = 0.5
	for _, c := range []float64{0.9, 0.99, 0.999} {
		if c <= q && float64(h.n)*(1-c) >= 10 {
			used = c
		}
	}
	return h.quantile(used), used
}
