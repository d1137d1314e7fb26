package main

import (
	"sync"
	"time"
)

// sliceLen is the length of one slice of a measured window; see
// window.endToEnd for what the slices are for.
const sliceLen = time.Second

// tally is the operations that completed in one slice of a phase: the
// latencies of the correct ones, the count of the others, and the instant of
// the last completion.
type tally struct {
	lat    hist
	failed uint64
	last   int64 // UnixNano of the latest completion, 0 if none
}

func (t *tally) complete(now time.Time, lat time.Duration) {
	if n := now.UnixNano(); n > t.last {
		t.last = n
	}
	t.lat.record(int64(lat))
}

func (t *tally) merge(o *tally) {
	t.lat.merge(&o.lat)
	t.failed += o.failed
	if o.last > t.last {
		t.last = o.last
	}
}

// sentTally is what went out: the server's served counts and argument
// checksums must come out the same.
type sentTally struct {
	sent   [numOps]uint64
	cfgSum uint64
	preSum uint64
}

func (t *sentTally) add(o *sentTally) {
	for i := range t.sent {
		t.sent[i] += o.sent[i]
	}
	t.cfgSum += o.cfgSum
	t.preSum += o.preSum
}

// loadStats is one caller's tallies for one phase. A closed loop's callers
// each own theirs and the driver merges them after the run, so the hot path
// shares nothing; an open loop's workers (thousands of operations a second,
// not hundreds of thousands) share one behind mu.
type loadStats struct {
	mu     *sync.Mutex // nil when a single goroutine owns the tallies
	slices sliceSet    // by completion instant
	perOp  [numOps]*hist
	sentTally
}

// sliceSet cuts a phase that began at start into tallies of every instants
// each; the last one also takes what completes after it.
type sliceSet struct {
	start time.Time
	every time.Duration
	t     []tally
}

func newSliceSet(start time.Time, every time.Duration, n int) sliceSet {
	return sliceSet{start: start, every: every, t: make([]tally, n)}
}

// at returns the slice an operation completing at now belongs to. The last
// operations of a closed loop complete just past the window's end and count
// toward its last slice.
func (s *sliceSet) at(now time.Time) *tally {
	k := int(now.Sub(s.start) / s.every)
	if k < 0 {
		k = 0
	}
	if k >= len(s.t) {
		k = len(s.t) - 1
	}
	return &s.t[k]
}

func (s *sliceSet) merge(o *sliceSet) {
	for k := range o.t {
		s.t[k].merge(&o.t[k])
	}
}

// total is all the slices together.
func (s *sliceSet) total() tally {
	var sum tally
	for k := range s.t {
		sum.merge(&s.t[k])
	}
	return sum
}

// attempted is how many operations were issued.
func (s *loadStats) attempted() uint64 {
	var n uint64
	for _, c := range s.sent {
		n += c
	}
	return n
}

func newLoadStats(start time.Time, ph phase, shared bool) *loadStats {
	s := &loadStats{slices: newSliceSet(start, ph.every, ph.slices)}
	if shared {
		s.mu = new(sync.Mutex)
	}
	return s
}

func (s *loadStats) lock() {
	if s.mu != nil {
		s.mu.Lock()
	}
}

func (s *loadStats) unlock() {
	if s.mu != nil {
		s.mu.Unlock()
	}
}

func (s *loadStats) merge(o *loadStats) {
	s.slices.merge(&o.slices)
	for i, h := range o.perOp {
		if h == nil {
			continue
		}
		if s.perOp[i] == nil {
			s.perOp[i] = new(hist)
		}
		s.perOp[i].merge(h)
	}
	s.sentTally.add(&o.sentTally)
}
