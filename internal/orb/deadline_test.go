package orb

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

// --- deadline propagation ----------------------------------------------------

// TestDeadlinePropagation: a per-call timeout crosses the wire as a relative
// millisecond budget and surfaces to the servant as an absolute deadline
// anchored at receipt; a call without a timeout arrives unbounded.
func TestDeadlinePropagation(t *testing.T) {
	for name, mk := range map[string]func() Options{
		"text": tcpText,
		"cdr":  tcpCDR,
		"mux-cdr": func() Options {
			return Options{Protocol: wire.CDR, Multiplex: true, MaxConcurrentPerConn: 8}
		},
	} {
		t.Run(name, func(t *testing.T) {
			type seen struct {
				deadline time.Time
				ok       bool
			}
			var mu sync.Mutex
			var got []seen
			table := NewMethodTable("IDL:test/Dl:1.0").Register("check", func(sc *ServerCall) error {
				d, ok := sc.Deadline()
				mu.Lock()
				got = append(got, seen{d, ok})
				mu.Unlock()
				return nil
			})

			server := New(mk())
			if err := server.Start(); err != nil {
				t.Fatal(err)
			}
			defer server.Shutdown()
			impl := &struct{}{}
			ref, err := server.Export(impl, table)
			if err != nil {
				t.Fatal(err)
			}
			client := New(mk())
			defer client.Shutdown()

			c, err := client.NewCall(ref, "check")
			if err != nil {
				t.Fatal(err)
			}
			c.SetTimeout(500 * time.Millisecond)
			before := time.Now()
			if err := c.Invoke(); err != nil {
				t.Fatal(err)
			}
			c, err = client.NewCall(ref, "check")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Invoke(); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			defer mu.Unlock()
			if len(got) != 2 {
				t.Fatalf("servant saw %d calls, want 2", len(got))
			}
			if !got[0].ok {
				t.Error("bounded call arrived without a deadline")
			} else {
				if got[0].deadline.Before(before) {
					t.Errorf("deadline %v is before the call was sent", got[0].deadline)
				}
				if late := before.Add(600 * time.Millisecond); got[0].deadline.After(late) {
					t.Errorf("deadline %v exceeds the 500ms budget (limit %v)", got[0].deadline, late)
				}
			}
			if got[1].ok {
				t.Errorf("unbounded call arrived with deadline %v", got[1].deadline)
			}
		})
	}
}

// rawDial opens a raw wire-level connection to a server started on inner,
// bypassing the client ORB (and its local deadline timer) entirely so tests
// can observe server-side deadline replies deterministically.
func rawDial(t *testing.T, inner transport.Transport, addr string) transport.Conn {
	t.Helper()
	conn, err := inner.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestDeadlineExpiredWhileQueued: with one dispatch slot held by a parked
// servant, a queued request whose propagated budget runs out is shed with
// StatusDeadlineExceeded before ever reaching the servant.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	inner := transport.NewInproc(wire.Text)
	impl := &blockImpl{blocking: 1, release: make(chan struct{})}
	server := New(Options{
		Protocol: wire.Text, Transport: inner, ListenAddr: ":0",
		Admission: AdmissionPolicy{MaxInFlight: 1, MaxQueue: 4},
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, newBlockTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	// First request takes the only slot and parks inside the servant.
	parked := rawDial(t, inner, ref.Addr)
	if err := parked.Send(&wire.Message{Type: wire.MsgRequest, RequestID: 1, TargetRef: ref.String(), Method: "block"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return atomic.LoadInt32(&impl.entered) == 1 })

	// Second request queues for the slot with a 30ms budget and expires there.
	queued := rawDial(t, inner, ref.Addr)
	if err := queued.Send(&wire.Message{Type: wire.MsgRequest, RequestID: 2, TargetRef: ref.String(), Method: "block", Deadline: 30}); err != nil {
		t.Fatal(err)
	}
	reply, err := queued.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != wire.StatusDeadlineExceeded {
		t.Fatalf("queued-expiry reply status = %v (%q), want StatusDeadlineExceeded", reply.Status, reply.ErrMsg)
	}
	if atomic.LoadInt32(&impl.entered) != 1 {
		t.Error("expired request reached the servant")
	}

	// The parked request is unaffected: release it and its reply arrives OK.
	close(impl.release)
	reply, err = parked.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != wire.StatusOK {
		t.Fatalf("parked request reply status = %v, want OK", reply.Status)
	}
	st := server.ORBStats()
	if st.Expired != 1 || st.Accepted != 1 {
		t.Errorf("ORBStats = %+v, want Expired=1 Accepted=1", st)
	}
}

// TestDeadlineExceededDuringDispatch: a reply a server interceptor delays
// past the caller's budget is replaced by StatusDeadlineExceeded — the server
// refuses to pretend late work is good work.
func TestDeadlineExceededDuringDispatch(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	impl := &blockImpl{}
	server := New(Options{Protocol: wire.CDR, Transport: inner, ListenAddr: ":0"})
	stallReplies(server, 60*time.Millisecond, everyDispatch)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, newBlockTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	conn := rawDial(t, inner, ref.Addr)
	if err := conn.Send(&wire.Message{Type: wire.MsgRequest, RequestID: 1, TargetRef: ref.String(), Method: "block", Deadline: 20}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != wire.StatusDeadlineExceeded {
		t.Fatalf("delayed-dispatch reply status = %v (%q), want StatusDeadlineExceeded", reply.Status, reply.ErrMsg)
	}
}

// --- admission control -------------------------------------------------------

// blockSession starts a server with the given admission policy and a parked
// blockImpl plus a client built from mkClient.
func blockSession(t *testing.T, p AdmissionPolicy, mkClient func() Options) (server, client *ORB, ref ObjectRef, impl *blockImpl) {
	t.Helper()
	impl = &blockImpl{blocking: 1, release: make(chan struct{})}
	server = New(Options{Protocol: wire.Text, Admission: p})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Shutdown() })
	ref, err := server.Export(impl, newBlockTable(impl))
	if err != nil {
		t.Fatal(err)
	}
	client = New(mkClient())
	t.Cleanup(func() { client.Shutdown() })
	return server, client, ref, impl
}

// TestAdmissionShed: at capacity with no queue, an arrival is refused with
// ErrOverloaded and never reaches the servant.
func TestAdmissionShed(t *testing.T) {
	server, client, ref, impl := blockSession(t, AdmissionPolicy{MaxInFlight: 1}, tcpText)

	parked := make(chan error, 1)
	go func() {
		c, err := client.NewCall(ref, "block")
		if err != nil {
			parked <- err
			return
		}
		parked <- c.Invoke()
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&impl.entered) == 1 })

	c, err := client.NewCall(ref, "block")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Invoke()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity call returned %v, want ErrOverloaded", err)
	}
	if atomic.LoadInt32(&impl.entered) != 1 {
		t.Error("shed request reached the servant")
	}

	close(impl.release)
	if err := <-parked; err != nil {
		t.Fatalf("parked call failed: %v", err)
	}
	// The slot is released after the reply is written, so the caller can
	// see its reply a moment before the server's books settle.
	waitFor(t, func() bool { return server.ORBStats().InFlight == 0 })
	st := server.ORBStats()
	if st.Shed != 1 || st.Accepted != 1 || st.InFlightHighWater != 1 {
		t.Errorf("ORBStats = %+v, want Shed=1 Accepted=1 InFlightHighWater=1", st)
	}
}

// TestOverloadedRetriesThenSucceeds: StatusOverloaded is classed safe, so a
// client with a retry policy backs off and lands once capacity frees — the
// composition the admission design leans on.
func TestOverloadedRetriesThenSucceeds(t *testing.T) {
	server, client, ref, impl := blockSession(t, AdmissionPolicy{MaxInFlight: 1}, func() Options {
		return Options{Protocol: wire.Text, Retry: RetryPolicy{MaxAttempts: 20, Backoff: 10 * time.Millisecond, Seed: 1}}
	})

	parked := make(chan error, 1)
	go func() {
		c, err := client.NewCall(ref, "block")
		if err != nil {
			parked <- err
			return
		}
		parked <- c.Invoke()
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&impl.entered) == 1 })

	// Free the slot once the second call has been shed at least once.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for server.ORBStats().Shed == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		atomic.StoreInt32(&impl.blocking, 0)
		close(impl.release)
	}()

	c, err := client.NewCall(ref, "block")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke(); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked call failed: %v", err)
	}
	if r := client.Stats().Retries; r == 0 {
		t.Error("overloaded call succeeded without retrying")
	}
	if st := server.ORBStats(); st.Shed == 0 {
		t.Errorf("ORBStats = %+v, want Shed > 0", st)
	}
}

// TestDeadlineExceededFatalNoRetry: a server-replied StatusDeadlineExceeded
// is fatal — retrying work whose caller has given up is pure waste — even
// with an aggressive retry policy and an idempotent method.
func TestDeadlineExceededFatalNoRetry(t *testing.T) {
	client := New(Options{
		Protocol: wire.Text, Transport: expiredTransport{},
		Retry: RetryPolicy{MaxAttempts: 5},
	})
	defer client.Shutdown()
	ref := ObjectRef{Proto: "expired", Addr: "x", ObjectID: "1", TypeID: echoTypeID}
	c, err := client.NewCall(ref, "ping")
	if err != nil {
		t.Fatal(err)
	}
	c.SetIdempotent(true)
	err = c.Invoke()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if r := client.Stats().Retries; r != 0 {
		t.Errorf("client retried a deadline-exceeded reply %d times; fatal failures must not be retried", r)
	}
}

// expiredTransport answers every request with StatusDeadlineExceeded, as a
// server would for work that outlived its caller's patience.
type expiredTransport struct{}

func (expiredTransport) Name() string { return "expired" }
func (expiredTransport) Listen(addr string) (transport.Listener, error) {
	return nil, fmt.Errorf("expired transport cannot listen")
}
func (expiredTransport) Dial(addr string) (transport.Conn, error) {
	return &expiredConn{ids: make(chan uint32, 16)}, nil
}

type expiredConn struct{ ids chan uint32 }

func (c *expiredConn) Send(m *wire.Message) error {
	c.ids <- m.RequestID
	return nil
}
func (c *expiredConn) Recv() (*wire.Message, error) {
	id := <-c.ids
	return &wire.Message{Type: wire.MsgReply, RequestID: id, Status: wire.StatusDeadlineExceeded, ErrMsg: "orb: deadline exceeded during dispatch"}, nil
}
func (*expiredConn) SetDeadline(time.Time) error { return nil }
func (*expiredConn) Close() error                { return nil }
func (*expiredConn) RemoteAddr() string          { return "expired" }

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- drain-aware shutdown ----------------------------------------------------

// TestGoAwayRebind: Shutdown announces the drain with GOAWAY; a client that
// sees it re-resolves the reference through the Rebind hook and the next
// invocation lands on the relocated server without a failed call in between.
func TestGoAwayRebind(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	mkServer := func() *ORB {
		return New(Options{
			Protocol: wire.CDR, Transport: inner, ListenAddr: ":0",
			MaxConcurrentPerConn: 8, DrainTimeout: 2 * time.Second,
		})
	}
	srv1, srv2 := mkServer(), mkServer()
	for _, s := range []*ORB{srv1, srv2} {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer srv2.Shutdown()
	impl1, impl2 := &echoImpl{}, &echoImpl{}
	ref1, err := srv1.Export(impl1, NewEchoTable(impl1))
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := srv2.Export(impl2, NewEchoTable(impl2))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol: wire.CDR, Transport: inner,
		Multiplex: true, MaxConcurrentPerConn: 8,
		Rebind: func(old ObjectRef) (ObjectRef, error) {
			if old == ref1 {
				return ref2, nil
			}
			return old, nil
		},
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref1)
	if err != nil {
		t.Fatal(err)
	}
	echo := obj.(Echo)

	if got, err := echo.Echo("before"); err != nil || got != "before" {
		t.Fatalf("Echo before drain = %q, %v", got, err)
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return client.ORBStats().GoAwaysSeen > 0 })

	if got, err := echo.Echo("after"); err != nil || got != "after" {
		t.Fatalf("Echo after drain = %q, %v", got, err)
	}
	if served := srv2.Stats().RequestsServed; served == 0 {
		t.Error("relocated server served nothing; rebind did not take effect")
	}
	if sent := srv1.ORBStats().GoAwaysSent; sent == 0 {
		t.Error("draining server reported zero GOAWAYs sent")
	}
}

// TestShutdownTortureMixedDeadlines is the robustness torture test: 32
// callers with mixed short/long deadlines hammer a 4-slot server over a
// coalesced multiplexed connection while the server sheds, and the server is
// drained mid-burst with a standby behind the Rebind hook. Long callers must
// never observe an error (no lost replies across the drain); short-deadline
// callers may fail only with ErrDeadlineExceeded. Run under -race via the
// Makefile race target.
func TestShutdownTortureMixedDeadlines(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	mkServer := func() *ORB {
		return New(Options{
			Protocol: wire.CDR, Transport: inner, ListenAddr: ":0",
			MaxConcurrentPerConn: 64,
			Admission:            AdmissionPolicy{MaxInFlight: 4, MaxQueue: 16},
			DrainTimeout:         2 * time.Second,
		})
	}
	srv1, srv2 := mkServer(), mkServer()
	for _, s := range []*ORB{srv1, srv2} {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer srv1.Shutdown()
	defer srv2.Shutdown()

	work := func(sc *ServerCall) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	ref1, err := srv1.Export(&struct{ a int }{1}, NewMethodTable("IDL:test/Work:1.0").Register("work", work))
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := srv2.Export(&struct{ a int }{2}, NewMethodTable("IDL:test/Work:1.0").Register("work", work))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol: wire.CDR, Transport: inner,
		Multiplex: true, MaxConcurrentPerConn: 64,
		CoalesceWrites: true,
		Retry:          RetryPolicy{MaxAttempts: 40, Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 42},
		Rebind: func(old ObjectRef) (ObjectRef, error) {
			if old == ref1 {
				return ref2, nil
			}
			return old, nil
		},
	})
	defer client.Shutdown()

	const callers, perCaller = 32, 8
	type outcome struct {
		short bool
		err   error
	}
	results := make(chan outcome, callers*perCaller)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		short := g%2 == 1
		wg.Add(1)
		go func(short bool) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				c, err := client.NewCall(ref1, "work")
				if err != nil {
					results <- outcome{short, err}
					continue
				}
				c.SetIdempotent(true)
				if short {
					c.SetTimeout(25 * time.Millisecond)
				}
				results <- outcome{short, c.Invoke()}
			}
		}(short)
	}

	// Drain the primary mid-burst.
	time.Sleep(30 * time.Millisecond)
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)

	var ok, deadline int
	for r := range results {
		switch {
		case r.err == nil:
			ok++
		case r.short && errors.Is(r.err, ErrDeadlineExceeded):
			deadline++
		default:
			t.Errorf("caller (short=%v) observed unexpected error: %v", r.short, r.err)
		}
	}
	if total := ok + deadline; total != callers*perCaller {
		t.Errorf("accounted for %d outcomes, want %d (no lost replies)", total, callers*perCaller)
	}
	if served := srv2.Stats().RequestsServed; served == 0 {
		t.Error("standby server served nothing; rebind after GOAWAY failed")
	}
	st1, st2 := srv1.ORBStats(), srv2.ORBStats()
	if st1.Shed+st1.Expired+st2.Shed+st2.Expired == 0 {
		t.Errorf("no request was ever shed under 8x oversubscription: srv1=%+v srv2=%+v", st1, st2)
	}
	// The last slot is released just after its reply is written, so the
	// counter may trail the final client completion by a beat.
	waitFor(t, func() bool {
		return srv1.ORBStats().InFlight == 0 && srv2.ORBStats().InFlight == 0
	})
	t.Logf("outcomes: %d ok, %d deadline-exceeded; srv1 %+v; srv2 %+v; client retries %d",
		ok, deadline, st1, st2, client.Stats().Retries)
}
