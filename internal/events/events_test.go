package events

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// capturedFrame records what a fake connection saw for one frame: the event
// name and the identity of the body's backing array (the encode-once proof:
// every subscriber's frame must point at the same bytes).
type capturedFrame struct {
	method  string
	bodyPtr *byte
}

// fakeConn is a transport.Conn + BatchSender that records frames instead of
// writing them, so tests can observe batching and body sharing directly.
// With hold set, its first write blocks until hold is closed, so frames sent
// meanwhile pile up in the coalescer's queue.
type fakeConn struct {
	hold     chan struct{}
	holdOnce sync.Once

	mu      sync.Mutex
	frames  []capturedFrame
	sends   int // Send calls
	batches int // SendBatch calls
	failing bool

	closed chan struct{}
	once   sync.Once
}

func newFakeConn() *fakeConn { return &fakeConn{closed: make(chan struct{})} }

func (c *fakeConn) record(m *wire.Message) {
	var p *byte
	if len(m.Body) > 0 {
		p = &m.Body[0]
	}
	c.frames = append(c.frames, capturedFrame{method: m.Method, bodyPtr: p})
}

func (c *fakeConn) wait() {
	if c.hold != nil {
		c.holdOnce.Do(func() { <-c.hold })
	}
}

func (c *fakeConn) Send(m *wire.Message) error {
	c.wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failing {
		return errors.New("fake: send failed")
	}
	c.sends++
	c.record(m)
	return nil
}

func (c *fakeConn) SendBatch(ms []*wire.Message) error {
	c.wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failing {
		return errors.New("fake: send failed")
	}
	c.batches++
	for _, m := range ms {
		c.record(m)
	}
	return nil
}

func (c *fakeConn) Recv() (*wire.Message, error) {
	<-c.closed
	return nil, wire.ErrClosed
}

func (c *fakeConn) SetDeadline(time.Time) error { return nil }

func (c *fakeConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *fakeConn) RemoteAddr() string { return "fake" }

// fail makes every later write error and unblocks Recv, simulating a killed
// connection.
func (c *fakeConn) fail() {
	c.mu.Lock()
	c.failing = true
	c.mu.Unlock()
	c.Close()
}

func (c *fakeConn) snapshot() (frames []capturedFrame, sends, batches int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]capturedFrame(nil), c.frames...), c.sends, c.batches
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkInvariant asserts the ledger's conservation law: every admitted
// event met exactly one fate.
func checkInvariant(t *testing.T, label string, st Stats) {
	t.Helper()
	sum := st.Delivered + st.Dropped + st.Coalesced + st.Undelivered + st.Discarded
	if st.Enqueued != sum {
		t.Fatalf("%s: enqueued %d != delivered %d + dropped %d + coalesced %d + undelivered %d + discarded %d",
			label, st.Enqueued, st.Delivered, st.Dropped, st.Coalesced, st.Undelivered, st.Discarded)
	}
}

// TestPublishSharesOneBody is the encode-once proof at the transport
// boundary: one publish to N remote subscribers must put N frames on the
// wire that all view the SAME backing array — the body was encoded (and
// copied) exactly once, then lease-shared.
func TestPublishSharesOneBody(t *testing.T) {
	const subs = 16
	conn := newFakeConn()
	conn.hold = make(chan struct{})
	b := NewBroker(Config{
		Dial: func(addr string) (transport.Conn, error) { return conn, nil },
	})
	defer b.Close()
	for i := 0; i < subs; i++ {
		if _, err := b.SubscribeRemote(fmt.Sprintf("@tcp:peer:1#%d#IDL:T:1.0", i), "peer:1", SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	src := &wire.Message{Static: true, Body: []byte("one encoded event body")}
	defer src.ReleaseBody()
	if n := b.Publish("frameReady", src); n != subs {
		t.Fatalf("Publish admitted %d of %d", n, subs)
	}
	// The connection's first write is held: every worker takes its event
	// and parks it in the coalescer behind that write, then the release
	// lets the flusher gather them.
	waitFor(t, "every worker to take its event", func() bool {
		for _, s := range *b.snapshot.Load() {
			s.q.mu.Lock()
			n := s.q.n
			s.q.mu.Unlock()
			if n > 0 {
				return false
			}
		}
		return true
	})
	close(conn.hold)
	waitFor(t, "all deliveries", func() bool { return b.Stats().Delivered == subs })

	frames, sends, batches := conn.snapshot()
	if len(frames) != subs {
		t.Fatalf("wire saw %d frames, want %d", len(frames), subs)
	}
	for i, f := range frames {
		if f.method != "frameReady" {
			t.Fatalf("frame %d method %q", i, f.method)
		}
		if f.bodyPtr != frames[0].bodyPtr {
			t.Fatalf("frame %d has its own body copy — fan-out re-encoded instead of sharing", i)
		}
	}
	if f := frames[0].bodyPtr; f != &src.Body[0] {
		t.Fatalf("wire frames do not view the source body")
	}
	// The point of routing through the coalescer: far fewer writes than
	// frames (one publish burst gathers into batches, not per-subscriber
	// syscalls).
	if sends+batches >= subs {
		t.Fatalf("%d sends + %d batches for %d frames — no gathering happened", sends, batches, subs)
	}
	t.Logf("%d frames in %d sends + %d batches", len(frames), sends, batches)
}

// TestDialSingleflight holds a slow dial open while a publish fans out to
// many subscribers on the same fresh address: every delivery worker must
// wait for the one in-flight dial — not mistake it for a recent failure and
// fail fast — so exactly one connection is dialed and nothing counts
// undelivered.
func TestDialSingleflight(t *testing.T) {
	const subs = 16
	var dials atomic.Int32
	conn := newFakeConn()
	dial := func(addr string) (transport.Conn, error) {
		dials.Add(1)
		time.Sleep(5 * time.Millisecond) // hold the dial window open
		return conn, nil
	}
	b := NewBroker(Config{Dial: dial})
	defer b.Close()
	for i := 0; i < subs; i++ {
		if _, err := b.SubscribeRemote(fmt.Sprintf("@tcp:peer:1#%d#IDL:T:1.0", i), "peer:1", SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	src := &wire.Message{Static: true, Body: []byte("x")}
	defer src.ReleaseBody()
	if n := b.Publish("tick", src); n != subs {
		t.Fatalf("Publish admitted %d of %d", n, subs)
	}
	waitFor(t, "all deliveries", func() bool { return b.Stats().Delivered == subs })
	if st := b.Stats(); st.Undelivered != 0 {
		t.Fatalf("%d undelivered during a healthy dial: %+v", st.Undelivered, st)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for one address, want 1", n)
	}
}

// TestPublishReleasesLeases is the leak probe: after every delivery
// completes and the broker closes, the only reference left on the shared
// body lease is the publisher's own.
func TestPublishReleasesLeases(t *testing.T) {
	const subs, rounds = 8, 50
	var delivered atomic.Uint64
	b := NewBroker(Config{})
	for i := 0; i < subs; i++ {
		_, err := b.SubscribeLocal(fmt.Sprintf("ref%d", i), func(m *wire.Message) error {
			delivered.Add(1)
			return nil
		}, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	src := &wire.Message{Static: true, Body: []byte("leak probe payload")}
	for r := 0; r < rounds; r++ {
		b.Publish("tick", src)
	}
	waitFor(t, "all deliveries", func() bool { return delivered.Load() == subs*rounds })
	b.Close()
	if got := src.LeaseRefs(); got != 1 {
		t.Fatalf("after drain the source lease holds %d refs, want 1 (leaked or over-released)", got)
	}
	src.ReleaseBody()
	checkInvariant(t, "broker", b.Stats())
}

// TestDropOldest wedges a subscriber and checks that the publisher never
// blocks, overflow displaces the oldest events, and the ledger balances.
func TestDropOldest(t *testing.T) {
	const depth, total = 4, 32
	release := make(chan struct{})
	var got []string
	var mu sync.Mutex
	b := NewBroker(Config{})
	id, err := b.SubscribeLocal("ref", func(m *wire.Message) error {
		<-release
		mu.Lock()
		got = append(got, string(m.Body))
		mu.Unlock()
		return nil
	}, SubOptions{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		src := &wire.Message{Static: true, Body: []byte(fmt.Sprintf("e%02d", i))}
		b.Publish("tick", src) // must not block on the wedged consumer
		wire.FreeMessage(src)
	}
	close(release)
	waitFor(t, "queue drain", func() bool {
		st, _ := b.SubscriberStats(id)
		return st.Delivered+st.Dropped == st.Enqueued
	})
	st, _ := b.SubscriberStats(id)
	if st.Enqueued != total {
		t.Fatalf("enqueued %d, want %d", st.Enqueued, total)
	}
	// The consumer can absorb at most: the in-flight event plus a queue's
	// worth behind it, plus whatever it raced out early; what matters is
	// that drops happened and the books balance.
	if st.Dropped == 0 {
		t.Fatalf("no drops despite %d events into a depth-%d queue on a wedged consumer", total, depth)
	}
	checkInvariant(t, "subscriber", st)
	// The last event is never droppable once enqueued last — the freshest
	// window survives.
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	if last != fmt.Sprintf("e%02d", total-1) {
		t.Fatalf("last delivered %q, want the freshest event", last)
	}
	b.Close()
	checkInvariant(t, "broker", b.Stats())
}

// TestCoalesceByKey wedges a subscriber and checks same-key events collapse
// to the latest value instead of backing up.
func TestCoalesceByKey(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	byMethod := map[string][]string{}
	b := NewBroker(Config{})
	id, err := b.SubscribeLocal("ref", func(m *wire.Message) error {
		<-release
		mu.Lock()
		byMethod[m.Method] = append(byMethod[m.Method], string(m.Body))
		mu.Unlock()
		return nil
	}, SubOptions{QueueDepth: 16, Policy: CoalesceByKey})
	if err != nil {
		t.Fatal(err)
	}
	pub := func(method, body string) {
		src := &wire.Message{Static: true, Body: []byte(body)}
		b.Publish(method, src)
		wire.FreeMessage(src)
	}
	for i := 0; i < 10; i++ {
		pub("state", fmt.Sprintf("s%d", i))
	}
	for i := 0; i < 5; i++ {
		pub("volume", fmt.Sprintf("v%d", i))
	}
	close(release)
	waitFor(t, "queue drain", func() bool {
		st, _ := b.SubscriberStats(id)
		return st.Delivered+st.Coalesced == st.Enqueued
	})
	st, _ := b.SubscriberStats(id)
	if st.Enqueued != 15 {
		t.Fatalf("enqueued %d, want 15", st.Enqueued)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no coalescing despite 10 same-key events on a wedged consumer")
	}
	checkInvariant(t, "subscriber", st)
	mu.Lock()
	defer mu.Unlock()
	// Whatever raced through, the final delivered value per key must be the
	// latest published.
	if vs := byMethod["state"]; vs[len(vs)-1] != "s9" {
		t.Fatalf("final state %q, want s9", vs[len(vs)-1])
	}
	if vs := byMethod["volume"]; vs[len(vs)-1] != "v4" {
		t.Fatalf("final volume %q, want v4", vs[len(vs)-1])
	}
	b.Close()
	checkInvariant(t, "broker", b.Stats())
}

// TestEndpointRedial kills the shared connection mid-stream: in-flight and
// backoff-window events count undelivered, the broker redials, and later
// events flow again — all without the publisher ever blocking.
func TestEndpointRedial(t *testing.T) {
	var mu sync.Mutex
	var conns []*fakeConn
	var dialDown bool
	dial := func(addr string) (transport.Conn, error) {
		mu.Lock()
		down := dialDown
		mu.Unlock()
		if down {
			return nil, errors.New("fake: peer unreachable")
		}
		c := newFakeConn()
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return c, nil
	}
	b := NewBroker(Config{Dial: dial})
	defer b.Close()
	id, err := b.SubscribeRemote("@tcp:peer:1#1#IDL:T:1.0", "peer:1", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := &wire.Message{Static: true, Body: []byte("x")}
	defer src.ReleaseBody()

	b.Publish("tick", src)
	waitFor(t, "first delivery", func() bool { return b.Stats().Delivered == 1 })

	// Kill the connection AND the peer: events published while the peer is
	// unreachable must count undelivered — never block the publisher.
	mu.Lock()
	dialDown = true
	conns[0].fail()
	mu.Unlock()
	waitFor(t, "undelivered while peer is down", func() bool {
		b.Publish("tick", src)
		st, _ := b.SubscriberStats(id)
		return st.Undelivered > 0
	})

	// Peer back up: the broker must redial and resume delivering.
	mu.Lock()
	dialDown = false
	mu.Unlock()
	waitFor(t, "redial and redelivery", func() bool {
		b.Publish("tick", src)
		mu.Lock()
		n := len(conns)
		mu.Unlock()
		return n >= 2 && b.Stats().Delivered >= 2
	})
	st, _ := b.SubscriberStats(id)
	if st.Undelivered == 0 {
		t.Fatalf("peer outage produced no undelivered count")
	}
	waitFor(t, "ledger settle", func() bool {
		st, _ := b.SubscriberStats(id)
		return st.Enqueued == st.Delivered+st.Dropped+st.Undelivered
	})
}

// TestCloseDiscardsAndUnblocks closes a broker with a wedged subscriber and
// queued events: Close must return, the backlog must be counted discarded,
// and a publish after close must be a no-op.
func TestCloseDiscardsAndUnblocks(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	b := NewBroker(Config{})
	_, err := b.SubscribeLocal("ref", func(m *wire.Message) error {
		close(started)
		<-release
		return nil
	}, SubOptions{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := &wire.Message{Static: true, Body: []byte("x")}
	defer src.ReleaseBody()
	b.Publish("tick", src)
	<-started
	for i := 0; i < 3; i++ {
		b.Publish("tick", src)
	}
	done := make(chan struct{})
	go func() { b.Close(); close(done) }()
	// Close discards the backlog but must wait for the in-flight delivery.
	select {
	case <-done:
		t.Fatal("Close returned while a delivery was still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done
	st := b.Stats()
	if st.Discarded != 3 {
		t.Fatalf("discarded %d, want 3", st.Discarded)
	}
	checkInvariant(t, "broker", st)
	if n := b.Publish("tick", src); n != 0 {
		t.Fatalf("publish after close admitted %d", n)
	}
	if _, err := b.SubscribeLocal("r", func(*wire.Message) error { return nil }, SubOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close: %v, want ErrClosed", err)
	}
	if src.LeaseRefs() != 1 {
		t.Fatalf("source lease refs %d after close, want 1", src.LeaseRefs())
	}
}

// TestUnsubscribe removes a subscription and checks later publishes skip it.
func TestUnsubscribe(t *testing.T) {
	var delivered atomic.Uint64
	b := NewBroker(Config{})
	defer b.Close()
	id, err := b.SubscribeLocal("ref", func(m *wire.Message) error {
		delivered.Add(1)
		return nil
	}, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := &wire.Message{Static: true, Body: []byte("x")}
	defer src.ReleaseBody()
	b.Publish("tick", src)
	waitFor(t, "delivery", func() bool { return delivered.Load() == 1 })
	if !b.Unsubscribe(id) {
		t.Fatal("Unsubscribe missed a live id")
	}
	if b.Unsubscribe(id) {
		t.Fatal("Unsubscribe hit a dead id")
	}
	if n := b.Publish("tick", src); n != 0 {
		t.Fatalf("publish after unsubscribe admitted %d", n)
	}
	if _, ok := b.SubscriberStats(id); ok {
		t.Fatal("stats survived unsubscribe")
	}
}
