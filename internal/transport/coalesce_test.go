package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// recordingConn wraps a Conn and records how frames reached the wire: one by
// one (Send) or gathered (SendBatch, recording each batch's frame count and
// body bytes). With hold set, its first write blocks until hold is closed, so
// frames sent meanwhile pile up in a coalescer's queue and the next flush is
// a batch — batch formation without a wall-clock linger.
type recordingConn struct {
	Conn
	hold    chan struct{}
	once    sync.Once
	mu      sync.Mutex
	singles int
	batches []int
	bytes   []int
}

func (c *recordingConn) wait() {
	if c.hold != nil {
		c.once.Do(func() { <-c.hold })
	}
}

func (c *recordingConn) Send(m *wire.Message) error {
	c.mu.Lock()
	c.singles++
	c.mu.Unlock()
	c.wait()
	return c.Conn.Send(m)
}

func (c *recordingConn) SendBatch(ms []*wire.Message) error {
	n := 0
	for _, m := range ms {
		n += len(m.Body)
	}
	c.mu.Lock()
	c.batches = append(c.batches, len(ms))
	c.bytes = append(c.bytes, n)
	c.mu.Unlock()
	c.wait()
	if bs, ok := c.Conn.(BatchSender); ok {
		return bs.SendBatch(ms)
	}
	for _, m := range ms {
		if err := c.Conn.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// written counts the frames handed to the conn so far.
func (c *recordingConn) written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.singles
	for _, b := range c.batches {
		n += b
	}
	return n
}

// maxBatch returns the largest gathered write seen so far.
func (c *recordingConn) maxBatch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for _, n := range c.batches {
		if n > max {
			max = n
		}
	}
	return max
}

// TestCoalesceConcurrentCalls drives 16 goroutines x 50 calls through ONE
// coalescing shared connection per protocol and checks (a) every caller gets
// its own reply back and (b) at least one gathered write actually contained
// multiple frames — the coalescing is real, not a pass-through.
func TestCoalesceConcurrentCalls(t *testing.T) {
	for name, proto := range map[string]wire.Protocol{"text": wire.Text, "cdr": wire.CDR} {
		t.Run(name, func(t *testing.T) {
			tr := NewInproc(proto)
			addr, stop := muxEchoServer(t, tr)
			defer stop()
			c, err := tr.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			rc := &recordingConn{Conn: c, hold: make(chan struct{})}
			m := newMuxConn(rc, true, nil)
			defer m.Close()

			const callers, perCaller = 16, 50
			var nextID uint32
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				go func() {
					for i := 0; i < perCaller; i++ {
						id := atomic.AddUint32(&nextID, 1)
						p, err := m.Invoke(muxReq(id))
						if err != nil {
							errs <- err
							return
						}
						r, err := p.Wait(nil)
						if err != nil {
							errs <- err
							return
						}
						if r.RequestID != id || string(r.Body) != fmt.Sprintf("%d", id) {
							errs <- fmt.Errorf("call %d got reply %d body %q", id, r.RequestID, r.Body)
							return
						}
						wire.FreeMessage(r)
					}
					errs <- nil
				}()
			}
			// The first write is held: let the other callers' frames queue
			// behind it, then release them into one gathered write.
			waitFor(t, "frames to queue behind the held write", func() bool {
				return queueLen(m.co) >= 2 || rc.maxBatch() >= 2
			})
			close(rc.hold)
			for g := 0; g < callers; g++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if n := m.InFlight(); n != 0 {
				t.Errorf("InFlight() = %d after all calls completed", n)
			}
			if max := rc.maxBatch(); max < 2 {
				t.Errorf("largest gathered write carried %d frames; concurrent callers never batched", max)
			}
			t.Logf("%d singles, %d batches (largest %d frames)", rc.singles, len(rc.batches), rc.maxBatch())
		})
	}
}

// TestCoalesceSingleCallerDirectPath: a lone synchronous caller must ride the
// direct-write fast path — every frame goes out as a plain Send, never
// through the queue/flusher (which would add a wakeup round trip per call).
func TestCoalesceSingleCallerDirectPath(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, stop := muxEchoServer(t, tr)
	defer stop()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordingConn{Conn: c}
	m := newMuxConn(rc, true, nil)
	defer m.Close()

	const calls = 64
	for i := 1; i <= calls; i++ {
		p, err := m.Invoke(muxReq(uint32(i)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		wire.FreeMessage(r)
	}
	rc.mu.Lock()
	singles, batches := rc.singles, len(rc.batches)
	rc.mu.Unlock()
	if singles != calls || batches != 0 {
		t.Errorf("single caller produced %d direct sends and %d batches, want %d and 0",
			singles, batches, calls)
	}
}

// scriptConn is a Conn whose Send blocks until the test feeds it a result,
// letting tests park writers at known points and fail them deterministically.
// Recv is never called (no reader is attached to it).
type scriptConn struct {
	mu     sync.Mutex
	script chan error
	sent   []*wire.Message
}

func newScriptConn() *scriptConn { return &scriptConn{script: make(chan error)} }

func (c *scriptConn) Send(m *wire.Message) error {
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return <-c.script
}

func (c *scriptConn) sentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent)
}

func (c *scriptConn) Recv() (*wire.Message, error)  { return nil, wire.ErrClosed }
func (c *scriptConn) SetDeadline(t time.Time) error { return nil }
func (c *scriptConn) Close() error                  { return nil }
func (c *scriptConn) RemoteAddr() string            { return "script" }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queueLen reads the coalescer's queue depth (same-package test access).
func queueLen(q *Coalescer) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

func testMsg(id uint32) *wire.Message {
	return &wire.Message{Type: wire.MsgRequest, RequestID: id, Method: "m"}
}

// TestCoalescerBatchBounds pins the two batch bounds. The conn's first write
// is held while senders queue, so the queue fills to its bound and the
// flushes after the release are as large as the bounds allow:
//
//   - 200 small frames never produce a gathered write over 64 frames (and
//     the full queue does produce one of exactly 64);
//   - large frames never produce a gathered write over 256 KiB of body plus
//     the one frame a batch always admits.
func TestCoalescerBatchBounds(t *testing.T) {
	for _, tc := range []struct {
		name         string
		frames, body int
	}{
		{"frames", 200, 16},
		{"bytes", 40, 48 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := &recordingConn{Conn: &fakeConn{}, hold: make(chan struct{})}
			q := NewCoalescer(rc)
			defer q.Close()
			body := make([]byte, tc.body)
			var wg sync.WaitGroup
			for i := 1; i <= tc.frames; i++ {
				wg.Add(1)
				go func(id uint32) {
					defer wg.Done()
					m := testMsg(id)
					m.Body = body
					if err := q.SendBatched(m); err != nil {
						t.Error(err)
					}
				}(uint32(i))
			}
			waitFor(t, "the queue to fill behind the held write", func() bool {
				return queueLen(q) == min(maxBatchFrames, tc.frames-rc.written())
			})
			close(rc.hold)
			wg.Wait()

			if n := rc.written(); n != tc.frames {
				t.Fatalf("conn saw %d frames, want %d", n, tc.frames)
			}
			switch max := rc.maxBatch(); {
			case tc.name == "frames" && max != maxBatchFrames:
				t.Errorf("largest gathered write carried %d frames; a full queue should flush %d", max, maxBatchFrames)
			case max < 2:
				t.Errorf("largest gathered write carried %d frames; nothing batched", max)
			}
			// Every sender has returned: the records are settled.
			for i, n := range rc.batches {
				if n > maxBatchFrames {
					t.Errorf("gathered write %d carried %d frames, bound %d", i, n, maxBatchFrames)
				}
				if b := rc.bytes[i]; b > maxBatchBytes+tc.body {
					t.Errorf("gathered write %d carried %d body bytes, bound %d plus one %d-byte frame", i, b, maxBatchBytes, tc.body)
				}
			}
			t.Logf("%d single sends, batches %v", rc.singles, rc.batches)
		})
	}
}

// TestCoalescerErrorClasses pins the three failure shapes callers see:
//
//   - the direct-path writer gets the underlying Send error, raw;
//   - frames in a failed gathered write get ErrFlushFailed (ambiguous:
//     earlier frames, or a prefix, may have reached the peer);
//   - frames still queued when the coalescer is poisoned get ErrNotSent
//     (never attempted, always safe to retry) — as do all later Sends.
func TestCoalescerErrorClasses(t *testing.T) {
	sc := newScriptConn()
	q := NewCoalescer(sc)
	defer q.Close()

	// A takes the direct path and parks inside sc.Send.
	aErr := make(chan error, 1)
	go func() { aErr <- q.Send(testMsg(1)) }()
	waitFor(t, "direct writer to reach the conn", func() bool { return sc.sentCount() == 1 })

	// B and C enqueue behind the busy write side.
	bErr := make(chan error, 1)
	cErr := make(chan error, 1)
	go func() { bErr <- q.Send(testMsg(2)) }()
	go func() { cErr <- q.Send(testMsg(3)) }()
	waitFor(t, "two frames to queue", func() bool { return queueLen(q) == 2 })

	// A's write completes cleanly; the flusher then drains [B C] — the
	// scriptConn is not a BatchSender, so the batch goes out as sequential
	// Sends, the first of which parks.
	sc.script <- nil
	if err := <-aErr; err != nil {
		t.Fatalf("direct-path Send = %v, want nil", err)
	}
	waitFor(t, "flusher to start the batch", func() bool { return sc.sentCount() == 2 })

	// D enqueues behind the in-flight batch.
	dErr := make(chan error, 1)
	go func() { dErr <- q.Send(testMsg(4)) }()
	waitFor(t, "a frame to queue behind the batch", func() bool { return queueLen(q) == 1 })

	// The batch write fails: B and C were part of it (ambiguous), D was
	// never attempted (safe).
	boom := errors.New("wire torn mid-batch")
	sc.script <- boom
	for who, ch := range map[string]chan error{"B": bErr, "C": cErr} {
		if err := <-ch; !errors.Is(err, ErrFlushFailed) {
			t.Errorf("%s's batched Send = %v, want ErrFlushFailed", who, err)
		}
	}
	if err := <-dErr; !errors.Is(err, ErrNotSent) {
		t.Errorf("queued-behind-failure Send = %v, want ErrNotSent", err)
	}

	// The coalescer is poisoned: later Sends fail without touching the conn.
	if err := q.Send(testMsg(5)); !errors.Is(err, ErrNotSent) {
		t.Errorf("Send after poisoning = %v, want ErrNotSent", err)
	}
	if n := sc.sentCount(); n != 2 {
		t.Errorf("conn saw %d sends, want 2 (poisoned coalescer must not write)", n)
	}
}

// TestCoalescerDirectPathError: a direct-path write failure surfaces raw (the
// caller's frame definitely failed alone — same semantics as an uncoalesced
// Send) and poisons the coalescer for everyone after.
func TestCoalescerDirectPathError(t *testing.T) {
	sc := newScriptConn()
	q := NewCoalescer(sc)
	defer q.Close()

	boom := errors.New("broken pipe")
	aErr := make(chan error, 1)
	go func() { aErr <- q.Send(testMsg(1)) }()
	waitFor(t, "direct writer to reach the conn", func() bool { return sc.sentCount() == 1 })
	sc.script <- boom

	if err := <-aErr; !errors.Is(err, boom) || errors.Is(err, ErrFlushFailed) {
		t.Errorf("direct-path Send = %v, want the raw conn error", err)
	}
	// Later Sends report ErrNotSent, with the original cause riding along
	// for diagnostics.
	if err := q.Send(testMsg(2)); !errors.Is(err, ErrNotSent) {
		t.Errorf("Send after direct-path failure = %v, want ErrNotSent", err)
	}
}

// TestCoalescerCloseFailsQueued: Close resolves queued-but-unwritten frames
// with ErrNotSent instead of stranding their callers, while a write already
// in flight completes on its own terms.
func TestCoalescerCloseFailsQueued(t *testing.T) {
	sc := newScriptConn()
	q := NewCoalescer(sc)

	aErr := make(chan error, 1)
	go func() { aErr <- q.Send(testMsg(1)) }()
	waitFor(t, "direct writer to reach the conn", func() bool { return sc.sentCount() == 1 })

	bErr := make(chan error, 1)
	cErr := make(chan error, 1)
	go func() { bErr <- q.Send(testMsg(2)) }()
	go func() { cErr <- q.Send(testMsg(3)) }()
	waitFor(t, "two frames to queue", func() bool { return queueLen(q) == 2 })

	q.Close()
	for who, ch := range map[string]chan error{"B": bErr, "C": cErr} {
		if err := <-ch; !errors.Is(err, ErrNotSent) {
			t.Errorf("%s's queued Send after Close = %v, want ErrNotSent", who, err)
		}
	}
	// The parked direct write is not the coalescer's to abort; it finishes
	// with whatever the conn says.
	sc.script <- nil
	if err := <-aErr; err != nil {
		t.Errorf("in-flight direct Send across Close = %v, want nil", err)
	}
}

// TestCoalesceMidBatchFaultRecovery is the transport-level torture run: 32
// callers (mixed oneway/twoway) hammer a coalescing mux pool while the fault
// transport kills the connection mid-gathered-write (FaultDrop before a
// batch frame, FaultPartial after one). Every caller must resolve — failed
// attempts retry through the pool onto redialed connections. Run under -race.
func TestCoalesceMidBatchFaultRecovery(t *testing.T) {
	inner := NewInproc(wire.CDR)
	addr, stop := muxEchoServer(t, inner)
	defer stop()
	ft := NewFaultTransport(inner)
	var kills int32
	ft.Decide = func(info FaultInfo) FaultVerdict {
		if info.Op != FaultSend {
			return FaultPass
		}
		switch {
		case info.Global%61 == 0:
			atomic.AddInt32(&kills, 1)
			return FaultDrop
		case info.Global%97 == 0:
			atomic.AddInt32(&kills, 1)
			return FaultPartial
		}
		return FaultPass
	}

	p := &MuxPool{
		Dial:     ft.Dial,
		Coalesce: true,
	}
	defer p.Close()

	const callers, perCaller = 32, 30
	var nextID uint32
	var failures int32
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		oneway := g%4 == 0
		go func(oneway bool) {
			for i := 0; i < perCaller; i++ {
				id := atomic.AddUint32(&nextID, 1)
				for {
					mc, err := p.Get(addr)
					if err != nil {
						errs <- err
						return
					}
					if oneway {
						req := muxReq(id)
						req.Oneway = true
						if err := mc.SendOneway(req); err != nil {
							atomic.AddInt32(&failures, 1)
							continue
						}
						break
					}
					pr, err := mc.Invoke(muxReq(id))
					if err != nil {
						atomic.AddInt32(&failures, 1)
						continue
					}
					r, err := pr.Wait(nil)
					if err != nil {
						atomic.AddInt32(&failures, 1)
						continue
					}
					if r.RequestID != id {
						errs <- fmt.Errorf("call %d got reply %d", id, r.RequestID)
						return
					}
					wire.FreeMessage(r)
					break
				}
			}
			errs <- nil
		}(oneway)
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if atomic.LoadInt32(&kills) == 0 {
		t.Error("fault schedule never fired; the torture exercised nothing")
	}
	st := p.Stats()
	if st.Redials == 0 {
		t.Error("mid-batch kills produced no redials")
	}
	if atomic.LoadInt32(&failures) == 0 {
		t.Error("mid-batch kills produced no failed calls")
	}
	t.Logf("%d kills, %d call failures, stats %+v", kills, failures, st)
}
