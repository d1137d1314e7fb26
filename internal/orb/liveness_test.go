package orb

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// allIdempotent opts every method into hedging and ambiguous-failure retry.
func allIdempotent(string) bool { return true }

// stallReplies holds back, for d after the servant ran, the reply of every
// dispatch on o whose 1-based ordinal satisfies stall. It is a server
// interceptor, so it applies to wire-borne and collocated dispatch alike and
// runs before the post-dispatch deadline check.
func stallReplies(o *ORB, d time.Duration, stall func(seq uint64) bool) {
	var seq atomic.Uint64
	o.AddServerInterceptor(func(_ *ServerContext, handle func() error) error {
		err := handle()
		if stall(seq.Add(1)) {
			time.Sleep(d)
		}
		return err
	})
}

func firstDispatch(seq uint64) bool { return seq == 1 }
func everyDispatch(uint64) bool     { return true }

// TestHedgeRescuesSlowCall: the first dispatch of a call is held far past
// the hedge delay; the hedge launches, wins, and the caller gets its answer
// at hedge-delay timescales instead of waiting out the stall. The losing
// primary's late reply is drained in the background.
func TestHedgeRescuesSlowCall(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR})
	stallReplies(server, 300*time.Millisecond, firstDispatch)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol:    wire.CDR,
		CallTimeout: 2 * time.Second,
		Retry:       RetryPolicy{Idempotent: allIdempotent},
		Hedge:       HedgePolicy{Delay: 30 * time.Millisecond, MaxHedges: 1},
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := obj.(Echo).Echo("hedged")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got != "hedged" {
		t.Fatalf("Echo = %q", got)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("hedged call took %v; the stalled primary was waited out", elapsed)
	}
	st := client.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("Hedges=%d HedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	// The primary's late reply must be drained (its lease freed), not leaked.
	waitFor(t, func() bool { return client.Stats().HedgeStragglers != 0 })
	if n := client.Stats().HedgeStragglers; n != 1 {
		t.Errorf("HedgeStragglers = %d, want 1", n)
	}
}

// TestHedgeRequiresIdempotence: a call not declared idempotent must never
// be hedged — a hedge is a duplicate execution, and the ORB cannot know
// it is safe unless the application said so.
func TestHedgeRequiresIdempotence(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR})
	stallReplies(server, 80*time.Millisecond, everyDispatch)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol:    wire.CDR,
		CallTimeout: 2 * time.Second,
		Hedge:       HedgePolicy{Delay: 15 * time.Millisecond, MaxHedges: 2},
		// No Retry.Idempotent, no SetIdempotent: nothing is hedgeable.
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.(Echo).Echo("x"); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Hedges != 0 {
		t.Errorf("non-idempotent call launched %d hedges", st.Hedges)
	}
	if st := server.Stats(); st.RequestsServed != 1 {
		t.Errorf("server served %d requests, want exactly 1", st.RequestsServed)
	}
}

// TestHedgeAllAttemptsFail: when the primary and every hedge fail, the
// invocation fails once — with the primary's error — rather than hanging
// or returning a half-result. The client's network silently drops every
// send, so no attempt is ever answered.
func TestHedgeAllAttemptsFail(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	lossy := transport.NewChaosTransport(transport.NewTCP(wire.CDR), 1)
	lossy.DropSend = 1 // every request lost
	client := New(Options{
		Protocol:    wire.CDR,
		Transport:   lossy,
		CallTimeout: 120 * time.Millisecond,
		Retry:       RetryPolicy{Idempotent: allIdempotent}, // hedgeable, no retries
		Hedge:       HedgePolicy{Delay: 20 * time.Millisecond, MaxHedges: 1},
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = obj.(Echo).Echo("doomed")
	if err == nil {
		t.Fatal("call with all replies dropped succeeded")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("error = %v, want ErrDeadlineExceeded", err)
	}
	// Both attempts run concurrently: total latency is one timeout plus the
	// hedge delay, not the sum of timeouts.
	if el := time.Since(start); el > time.Second {
		t.Errorf("hedged failure took %v; attempts did not overlap", el)
	}
	st := client.Stats()
	if st.Hedges != 1 || st.HedgeWins != 0 {
		t.Errorf("Hedges=%d HedgeWins=%d, want 1/0", st.Hedges, st.HedgeWins)
	}
	if n := lossy.Stats().Dropped; n != 2 {
		t.Errorf("network dropped %d sends, want 2 (primary + hedge)", n)
	}
}

// TestHedgeMuxSharedConn: hedging over a multiplexed connection — the hedge
// rides the SAME shared conn as the stalled primary, so the server must
// dispatch concurrently (MaxConcurrentPerConn > 1) for the duplicate to
// overtake. This is the common production shape; the tests above cover the
// exclusive-pool path.
func TestHedgeMuxSharedConn(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR, MaxConcurrentPerConn: 16})
	stallReplies(server, 300*time.Millisecond, firstDispatch)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol:    wire.CDR,
		Multiplex:   true,
		CallTimeout: 2 * time.Second,
		Retry:       RetryPolicy{Idempotent: allIdempotent},
		Hedge:       HedgePolicy{Delay: 30 * time.Millisecond, MaxHedges: 1},
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got, err := obj.(Echo).Echo("mux-hedged")
	if err != nil {
		t.Fatal(err)
	}
	if got != "mux-hedged" {
		t.Fatalf("Echo = %q", got)
	}
	if el := time.Since(start); el >= 300*time.Millisecond {
		t.Errorf("mux hedged call took %v; the duplicate never overtook the stall", el)
	}
	st := client.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("Hedges=%d HedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if st.MuxCalls != 2 {
		t.Errorf("MuxCalls = %d, want 2 (primary + hedge, both on the shared conn)", st.MuxCalls)
	}
}

// TestKeepaliveEndToEndMux: a negotiated multiplexed client pings its idle
// shared connection, the server ORB answers out of band, and the connection
// survives — across both ORBs' stats.
func TestKeepaliveEndToEndMux(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol:          wire.CDR,
		Multiplex:         true,
		Negotiate:         true,
		KeepaliveInterval: 15 * time.Millisecond,
		CallTimeout:       2 * time.Second,
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	echo := obj.(Echo)
	if err := echo.Ping(); err != nil {
		t.Fatal(err)
	}

	// Idle across several intervals: pings must flow and be answered.
	waitFor(t, func() bool { return client.MuxStats().Pongs >= 2 })
	mst := client.MuxStats()
	if mst.Pings < 2 || mst.Pongs < 2 {
		t.Errorf("mux stats Pings=%d Pongs=%d, want >= 2 each", mst.Pings, mst.Pongs)
	}
	if mst.StuckEvicted != 0 {
		t.Errorf("healthy connection evicted %d times", mst.StuckEvicted)
	}
	if n := server.Stats().PingsServed; n < 2 {
		t.Errorf("server PingsServed = %d, want >= 2", n)
	}
	// The probed connection still carries calls.
	if err := echo.Ping(); err != nil {
		t.Fatalf("call after keepalive probing: %v", err)
	}
}

// TestKeepaliveExclusiveProbeOnCheckout: with Multiplex off, a cached
// connection idle past the keepalive interval is ping-probed at checkout;
// the server answers and the cached connection is reused, not redialed.
func TestKeepaliveExclusiveProbeOnCheckout(t *testing.T) {
	impl := &echoImpl{}
	server := New(Options{Protocol: wire.CDR})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{
		Protocol:          wire.CDR,
		KeepaliveInterval: 15 * time.Millisecond,
		CallTimeout:       2 * time.Second,
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	echo := obj.(Echo)
	if err := echo.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // let the cached conn go long-idle
	if err := echo.Ping(); err != nil {
		t.Fatal(err)
	}
	pst := client.PoolStats()
	if pst.Probes < 1 {
		t.Errorf("long-idle checkout ran %d probes, want >= 1", pst.Probes)
	}
	if pst.ProbeEvicted != 0 {
		t.Errorf("healthy probe evicted %d connections", pst.ProbeEvicted)
	}
	if pst.Dials != 1 {
		t.Errorf("Dials = %d, want 1 (probe passed, connection reused)", pst.Dials)
	}
	if n := server.Stats().PingsServed; n < 1 {
		t.Errorf("server PingsServed = %d, want >= 1", n)
	}
}

// TestChaosBlackholeTorture is the liveness layer's integration crucible:
// a multiplexed, negotiated, keepalive-probing, hedging, retrying client
// hammers a server whose network goes completely dark mid-burst (sends
// swallowed, inbound discarded — no errors anywhere) and then heals. Every
// idempotent call must eventually complete, the stuck connection must have
// been evicted by the prober (nothing else can detect a blackhole), and no
// read-buffer leases may leak. Run under -race in CI.
func TestChaosBlackholeTorture(t *testing.T) {
	inner := transport.NewInproc(wire.CDR)
	impl := &echoImpl{}
	server := New(Options{
		Protocol: wire.CDR, Transport: inner, ListenAddr: ":0",
		MaxConcurrentPerConn: 8,
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Export(impl, NewEchoTable(impl))
	if err != nil {
		t.Fatal(err)
	}

	chaos := transport.NewChaosTransport(inner, 99)
	client := New(Options{
		Protocol: wire.CDR, Transport: chaos, ListenAddr: ":0",
		Multiplex:         true,
		Negotiate:         true,
		KeepaliveInterval: 10 * time.Millisecond,
		CallTimeout:       300 * time.Millisecond,
		Retry: RetryPolicy{
			MaxAttempts: 20,
			Backoff:     5 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			Idempotent:  allIdempotent,
			Seed:        1,
		},
		Hedge: HedgePolicy{Delay: 60 * time.Millisecond, MaxHedges: 1},
	})
	registerEchoStub(client)
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	echo := obj.(Echo)

	const callers, perCaller = 4, 25
	var calls, failures atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perCaller; i++ {
				if _, err := echo.Echo("torture"); err != nil {
					failures.Add(1)
				}
				calls.Add(1)
				time.Sleep(2 * time.Millisecond) // pace: the burst must span the partition
			}
		}(g)
	}
	close(start)

	// Mid-burst: once traffic is established, the network to the server
	// goes completely dark for a while, then heals. No goroutine observes
	// an error from the partition itself — sends "succeed", inbound frames
	// silently vanish — so only the liveness layer can notice.
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	chaos.Blackhole(ref.Addr)
	time.Sleep(100 * time.Millisecond)
	chaos.Heal(ref.Addr)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("torture burst wedged: %d/%d calls done", calls.Load(), callers*perCaller)
	}

	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d idempotent calls failed despite retry+hedge", n, callers*perCaller)
	}
	cst := chaos.Stats()
	if cst.Swallowed == 0 {
		t.Error("blackhole swallowed nothing; the partition never bit")
	}
	mst := client.MuxStats()
	if mst.StuckEvicted == 0 {
		t.Error("no stuck-connection eviction: keepalive never detected the blackhole")
	}
	t.Logf("chaos=%+v mux: pings=%d pongs=%d evicted=%d stats=%+v",
		cst, mst.Pings, mst.Pongs, mst.StuckEvicted, client.Stats())
}
