package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen/media"
	"repro/internal/heidi"
)

// session is the benchmark's Media::Session servant. Its state is bounded:
// a fixed 64-entry catalogue, a few scalars, and counters for the operations
// the workloads issue — demo.Session
// appends every configure and prefetch forever and would turn a 20 s run
// into a memory benchmark. Arguments are folded into order-free checksums
// the driver compares against what it sent.
type session struct {
	cat   media.HdStreamInfoSeq
	known map[string]bool

	state  atomic.Int32
	served [numOps]atomic.Uint64
	cfgSum atomic.Uint64
	preSum atomic.Uint64
}

func newSession() *session {
	s := &session{cat: catalogue(), known: make(map[string]bool)}
	for _, c := range s.cat {
		s.known[c.Name] = true
	}
	return s
}

func (s *session) Ping() error { s.served[opPing].Add(1); return nil }

func (s *session) GetName() (string, error) { return "orbload", nil }

func (s *session) List() (media.HdStreamInfoSeq, error) {
	s.served[opList].Add(1)
	return s.cat, nil
}

func (s *session) Open(name string, offsetMs int32) error {
	s.served[opOpen].Add(1)
	if !s.known[name] {
		return &media.HdNoSuchStream{Name: name}
	}
	return nil
}

func (s *session) Prefetch(name string) error {
	s.served[opPrefetch].Add(1)
	s.preSum.Add(hashString(name))
	return nil
}

func (s *session) Configure(info *media.HdStreamInfo, exclusive heidi.XBool) error {
	s.served[opConfigure].Add(1)
	sum := infoSum(info)
	if exclusive {
		sum++
	}
	s.cfgSum.Add(sum)
	return nil
}

func (s *session) GetVolume() (int32, error) { s.served[opGetVolume].Add(1); return servedVolume, nil }

func (s *session) SetVolume(int32) error { return nil }

func (s *session) State() (media.HdStreamState, error) {
	return media.HdStreamState(s.state.Load()), nil
}

func (s *session) Play(name string, initial media.HdStreamState) error {
	s.served[opPlay].Add(1)
	if !s.known[name] {
		return &media.HdNoSuchStream{Name: name}
	}
	s.state.Store(int32(initial))
	return nil
}

func (s *session) Stop() error { return nil }

// tracedSession is the traced run's servant wrapper: one orb.servant span
// around each upcall, which is the application time the ledger sets apart
// from the ORB's own.
type tracedSession struct {
	in media.HdSession
	t  *tracer
}

func (w *tracedSession) span() func() {
	start := time.Now().UnixNano()
	return func() { w.t.record(spServant, start, time.Now().UnixNano()) }
}

func (w *tracedSession) Ping() error                  { defer w.span()(); return w.in.Ping() }
func (w *tracedSession) GetName() (string, error)     { defer w.span()(); return w.in.GetName() }
func (w *tracedSession) Prefetch(n string) error      { defer w.span()(); return w.in.Prefetch(n) }
func (w *tracedSession) GetVolume() (int32, error)    { defer w.span()(); return w.in.GetVolume() }
func (w *tracedSession) SetVolume(v int32) error      { defer w.span()(); return w.in.SetVolume(v) }
func (w *tracedSession) Stop() error                  { defer w.span()(); return w.in.Stop() }
func (w *tracedSession) Open(n string, o int32) error { defer w.span()(); return w.in.Open(n, o) }

func (w *tracedSession) List() (media.HdStreamInfoSeq, error) {
	defer w.span()()
	return w.in.List()
}

func (w *tracedSession) Configure(info *media.HdStreamInfo, exclusive heidi.XBool) error {
	defer w.span()()
	return w.in.Configure(info, exclusive)
}

func (w *tracedSession) State() (media.HdStreamState, error) {
	defer w.span()()
	return w.in.State()
}

func (w *tracedSession) Play(n string, initial media.HdStreamState) error {
	defer w.span()()
	return w.in.Play(n, initial)
}

// eventPhase tells the consumers how to time the events of the phase in
// progress: event seq fell due at base + ((seq-seq0)/burst)·period.
type eventPhase struct {
	seq0   int32
	base   time.Time
	period time.Duration
	burst  int32
	record bool
}

// consumer is one Media::Playback subscriber in the driver process. Upcalls
// for one consumer arrive in order on one connection; the mutex only makes
// the driver's reads safe.
type consumer struct {
	phase *atomic.Pointer[eventPhase]
	// sent is how many events the publisher has handed to its stub so far:
	// seq+1 of the latest.
	sent *atomic.Int32
	t    *tracer // nil outside the traced run

	mu      sync.Mutex
	slices  sliceSet // of the measured window
	backlog int32    // most events published but not yet seen here, in the window
	next    int32    // the seq this consumer must see next
	got     uint64
	bad     uint64 // gaps, repeats, reordering
}

func (c *consumer) FrameReady(name string, seq int32) error {
	now := time.Now()
	p := c.phase.Load()
	c.mu.Lock()
	c.got++
	if seq != c.next || name != channelName {
		c.bad++
	}
	c.next = seq + 1
	if p != nil && p.record && seq >= p.seq0 {
		due := p.base.Add(time.Duration((seq-p.seq0)/p.burst) * p.period)
		c.slices.at(now).complete(now, now.Sub(due))
		if b := c.sent.Load() - c.next; b > c.backlog {
			c.backlog = b
		}
	}
	c.mu.Unlock()
	if c.t != nil {
		c.t.record(spServant, now.UnixNano(), time.Now().UnixNano())
	}
	return nil
}

// begin readies the consumer for a measured window cut into sl.
func (c *consumer) begin(sl sliceSet) {
	c.mu.Lock()
	c.slices, c.backlog = sl, 0
	c.mu.Unlock()
}

func (c *consumer) StateChanged(string, media.HdStreamState) error { return nil }
func (c *consumer) Stalled(string, int32) error                    { return nil }
