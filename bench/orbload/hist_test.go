package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the quantile a sorted slice gives: the sample at rank ceil(q·n).
func oracle(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestHistMatchesSortedSlice(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := map[string]func() int64{
		"uniform-small": func() int64 { return r.Int63n(100) },
		"uniform-wide":  func() int64 { return r.Int63n(50_000_000) },
		"lognormal":     func() int64 { return int64(math.Exp(r.NormFloat64()*1.5 + 10)) },
		"bimodal": func() int64 {
			if r.Intn(10) == 0 {
				return 2_000_000 + r.Int63n(500_000)
			}
			return 12_000 + r.Int63n(3_000)
		},
	}
	for name, draw := range shapes {
		var h hist
		vals := make([]int64, 200_000)
		for i := range vals {
			vals[i] = draw()
			h.record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := oracle(vals, q), h.quantile(q)
			// One bucket is at most 1/128 of its lower bound wide, and at
			// least one value wide.
			if tol := math.Max(want/128, 1); math.Abs(got-want) > tol {
				t.Errorf("%s q=%v: histogram %v, sorted slice %v (tolerance %v)", name, q, got, want, tol)
			}
		}
		if got, want := h.max, vals[len(vals)-1]; got != want {
			t.Errorf("%s: max %d, want %d", name, got, want)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1023, 1024, 1 << 20, 1<<20 + 1<<13, 1 << 35, 1 << 36, 1 << 50} {
		b := bucketOf(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d (of %d)", v, b, prev, histBuckets)
		}
		if lower, width := bucketRange(b); v < 1<<histMaxExp && (float64(v) < lower || float64(v) >= lower+width) {
			t.Errorf("value %d not inside its bucket [%v, %v)", v, lower, lower+width)
		}
		prev = b
	}
}

func TestHistMergeEqualsRecordingTogether(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var a, b, both hist
	for i := 0; i < 50_000; i++ {
		v := r.Int63n(10_000_000)
		both.record(v)
		if i%3 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	if a != both {
		t.Fatal("merging two callers' histograms differs from recording every sample into one")
	}
}

func TestHistTailNeedsTenSamplesBeyond(t *testing.T) {
	var h hist
	for i := 0; i < 500; i++ {
		h.record(int64(i))
	}
	if _, used := h.tail(0.999); used != 0.9 {
		t.Errorf("500 samples support p90 (50 beyond) but not p99 (5 beyond); used p%v", used*100)
	}
	for i := 0; i < 1000; i++ {
		h.record(int64(i))
	}
	if _, used := h.tail(0.99); used != 0.99 {
		t.Errorf("1500 samples support p99 (15 beyond); used p%v", used*100)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same data.
	q1, q3 := quartiles([]float64{10, 12, 11, 15, 14, 13, 19, 18, 17, 16})
	if q1 != 11.75 || q3 != 17.25 {
		t.Errorf("ten values: got %v, %v; Python gives 11.75, 17.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("two values: got %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
	if got := spreadOf([]float64{3, 1}); got != 1 {
		t.Errorf("two sets are held to their distance over their median: got %v, want 1", got)
	}
	if got := spreadOf([]float64{10, 12, 11, 15, 14, 13, 19, 18, 17, 16}); got != 5.5/14.5 {
		t.Errorf("ten values: spread %v, want %v", got, 5.5/14.5)
	}
}
