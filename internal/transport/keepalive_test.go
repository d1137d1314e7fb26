package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// pingServer accepts connections and answers requests with echoes and pings
// with pongs — unless muted, in which case pings (and requests) are read
// and silently discarded: the wedged-but-connected peer the keepalive layer
// exists to detect.
type pingServer struct {
	l     Listener
	mute  atomic.Bool  // swallow everything: the stuck peer
	pings atomic.Int64 // pings received (answered or not)
	wg    sync.WaitGroup
}

func startPingServer(t *testing.T, tr Transport) (addr string, s *pingServer) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	s = &pingServer{l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func(c Conn) {
				defer s.wg.Done()
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					typ, id, body := m.Type, m.RequestID, m.Body
					if s.mute.Load() {
						wire.FreeMessage(m)
						continue
					}
					switch typ {
					case wire.MsgPing:
						s.pings.Add(1)
						wire.FreeMessage(m)
						c.Send(&wire.Message{Type: wire.MsgPong, RequestID: id, Static: true})
					case wire.MsgRequest:
						reply := &wire.Message{
							Type: wire.MsgReply, RequestID: id,
							Status: wire.StatusOK, Body: body, Static: true,
						}
						err := c.Send(reply)
						wire.FreeMessage(m) // reply written; body no longer aliased
						if err != nil {
							return
						}
					default:
						wire.FreeMessage(m)
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close(); s.wg.Wait() })
	return l.Addr(), s
}

// TestKeepalivePingsIdleConn: a shared connection left idle is pinged once
// per quiet interval, the pongs count as traffic, and the connection stays
// up — liveness probing must never kill a healthy-but-quiet connection.
func TestKeepalivePingsIdleConn(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, srv := startPingServer(t, tr)

	p := &MuxPool{
		Dial:      tr.Dial,
		Keepalive: 15 * time.Millisecond,
	}
	defer p.Close()
	mc, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the pongs (not just the server-side pings): the third pong
	// is still in flight when the server counts the third ping.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Pongs < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.pings.Load(); n < 3 {
		t.Fatalf("idle connection received %d pings, want >= 3", n)
	}
	if mc.Dead() {
		t.Fatal("healthy idle connection was evicted")
	}
	st := p.Stats()
	if st.Pings < 3 || st.Pongs < 3 {
		t.Errorf("stats Pings=%d Pongs=%d, want >= 3 each", st.Pings, st.Pongs)
	}
	if st.StuckEvicted != 0 {
		t.Errorf("StuckEvicted = %d on a healthy connection", st.StuckEvicted)
	}

	// Still fully usable after being probed.
	pr, err := mc.Invoke(muxReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeepaliveEvictsStuckConn: the peer goes silent (reads everything,
// answers nothing), the prober's ping goes unanswered past the timeout, and
// the connection is torn down with ErrConnStuck — failing the in-flight
// call instead of letting it wait out its full deadline.
func TestKeepaliveEvictsStuckConn(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, srv := startPingServer(t, tr)

	p := &MuxPool{
		Dial:      tr.Dial,
		Keepalive: 10 * time.Millisecond, // stuck after 30ms of silence
	}
	defer p.Close()
	mc, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}

	srv.mute.Store(true) // the peer wedges: connected, reading, never answering
	pr, err := mc.Invoke(muxReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(nil); !errors.Is(err, ErrConnStuck) {
		t.Fatalf("in-flight call on stuck connection failed with %v, want ErrConnStuck", err)
	}
	if !mc.Dead() {
		t.Error("stuck connection not marked dead")
	}

	// The pool replaces the corpse on the next Get and counts the eviction.
	srv.mute.Store(false)
	mc2, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if mc2 == mc {
		t.Fatal("pool handed out the evicted connection")
	}
	pr, err = mc2.Invoke(muxReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.StuckEvicted != 1 {
		t.Errorf("StuckEvicted = %d, want 1", st.StuckEvicted)
	}
}

// TestKeepaliveBusyConnNeverPinged: every inbound frame is proof of life, so
// a connection carrying steady traffic must not be probed at all — pings on
// busy connections would be pure overhead.
func TestKeepaliveBusyConnNeverPinged(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, srv := startPingServer(t, tr)

	p := &MuxPool{
		Dial:      tr.Dial,
		Keepalive: 40 * time.Millisecond,
	}
	defer p.Close()
	mc, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Replies every few ms keep lastRecv fresh across many intervals.
	stop := time.Now().Add(200 * time.Millisecond)
	for id := uint32(1); time.Now().Before(stop); id++ {
		pr, err := mc.Invoke(muxReq(id))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Wait(nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(4 * time.Millisecond)
	}
	if n := srv.pings.Load(); n != 0 {
		t.Errorf("busy connection received %d pings, want 0", n)
	}
}

// TestKeepaliveNegotiationGate: a peer that did not negotiate
// wire.FeatureKeepalive must never see a ping (the unknown frame could kill
// a legacy connection), and the ungated peer must.
func TestKeepaliveNegotiationGate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		offer     wire.Feature
		wantPings bool
	}{
		{"peer-with-keepalive", wire.FeatureKeepalive | wire.FeatureDeadline, true},
		{"peer-without-keepalive", wire.FeatureDeadline, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewInproc(wire.CDR)
			srv := startHelloServer(t, tr, wire.Hello{
				Version:  wire.HelloVersion,
				Features: tc.offer,
				Codecs:   []string{wire.CDR.Name()},
			})
			n := &Negotiator{Dial: tr.Dial, Offer: wire.Hello{
				Version:  wire.HelloVersion,
				Features: wire.FeatureKeepalive | wire.FeatureDeadline,
				Codecs:   []string{wire.CDR.Name()},
			}}
			p := &MuxPool{
				Dial: n.DialConn,
				// The hello server answers hellos only, so pings (when sent)
				// go unanswered and the connection is evicted as stuck —
				// this test watches the send gate, not eviction.
				Keepalive: 10 * time.Millisecond,
			}
			defer p.Close()
			if _, err := p.Get(srv.l.Addr()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(60 * time.Millisecond)
			st := p.Stats()
			if tc.wantPings && st.Pings == 0 {
				t.Error("keepalive-negotiated peer received no pings")
			}
			if !tc.wantPings && st.Pings != 0 {
				t.Errorf("non-keepalive peer received %d pings, want 0", st.Pings)
			}
		})
	}
}

// TestPoolPingProbeEvictsDeadIdleConn: an exclusive-pool connection that
// sat idle past ProbeIdle is ping-probed at checkout; a probe the peer
// cannot answer discards the corpse and the caller gets a fresh dial — the
// caller never sees the dead connection at all.
func TestPoolPingProbeEvictsDeadIdleConn(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, srv := startPingServer(t, tr)

	p := &Pool{
		Dial:      tr.Dial,
		ProbeIdle: 5 * time.Millisecond,
		Probe:     PingProbe(100 * time.Millisecond),
	}
	defer p.Close()

	// Warm the cache.
	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(addr, c, true)

	// Immediate re-checkout: idle < ProbeIdle, no probe, no round-trip.
	c, err = p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Probes != 0 {
		t.Fatalf("fresh checkout probed (Probes=%d), want the zero-cost path", st.Probes)
	}
	p.Put(addr, c, true)

	// Long-idle + healthy peer: probed, passes, same connection reused.
	time.Sleep(10 * time.Millisecond)
	c, err = p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Probes != 1 || st.ProbeEvicted != 0 {
		t.Fatalf("healthy probe: Probes=%d ProbeEvicted=%d, want 1/0", st.Probes, st.ProbeEvicted)
	}
	if st.Dials != 1 {
		t.Fatalf("healthy probe redialed (Dials=%d)", st.Dials)
	}
	p.Put(addr, c, true)

	// Long-idle + wedged peer: the probe times out, the corpse is evicted,
	// and the checkout falls through to a fresh dial.
	srv.mute.Store(true)
	time.Sleep(10 * time.Millisecond)
	c, err = p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Put(addr, c, true)
	st = p.Stats()
	if st.Probes != 2 || st.ProbeEvicted != 1 {
		t.Errorf("dead probe: Probes=%d ProbeEvicted=%d, want 2/1", st.Probes, st.ProbeEvicted)
	}
	if st.Dials != 2 {
		t.Errorf("eviction did not redial (Dials=%d, want 2)", st.Dials)
	}
	if n := srv.pings.Load(); n == 0 {
		t.Error("server saw no probe pings")
	}
}

// TestPingProbeSkipsStaleFrames: a probe must see past bounded stale
// traffic (a late reply abandoned by a timed-out caller) to its pong.
func TestPingProbeSkipsStaleFrames(t *testing.T) {
	tr := NewInproc(wire.CDR)
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			id := m.RequestID
			wire.FreeMessage(m)
			// Two stale late replies ahead of the pong.
			c.Send(&wire.Message{Type: wire.MsgReply, RequestID: 9001, Static: true})
			c.Send(&wire.Message{Type: wire.MsgReply, RequestID: 9002, Static: true})
			c.Send(&wire.Message{Type: wire.MsgPong, RequestID: id, Static: true})
		}
	}()

	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := PingProbe(time.Second)(c); err != nil {
		t.Fatalf("probe failed to skip stale frames: %v", err)
	}
}

// TestPingProbeLegacyPeerPasses: a connection whose negotiation settled
// without FeatureKeepalive must pass the probe untouched — probing legacy
// peers would evict every legacy connection at every checkout.
func TestPingProbeLegacyPeerPasses(t *testing.T) {
	tr := NewInproc(wire.CDR)
	srv := startHelloServer(t, tr, wire.Hello{
		Version:  wire.HelloVersion,
		Features: wire.FeatureDeadline, // no keepalive
		Codecs:   []string{wire.CDR.Name()},
	})
	n := &Negotiator{Dial: tr.Dial, Offer: wire.Hello{
		Version:  wire.HelloVersion,
		Features: wire.FeatureKeepalive | wire.FeatureDeadline,
		Codecs:   []string{wire.CDR.Name()},
	}}
	c, err := n.DialConn(srv.l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The hello server never answers pings, so a sent ping would hang the
	// probe to its timeout and fail it; passing instantly proves no ping
	// went out.
	start := time.Now()
	if err := PingProbe(300 * time.Millisecond)(c); err != nil {
		t.Fatalf("probe on legacy-negotiated conn = %v, want nil", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("legacy probe waited on the network; it should return immediately")
	}
}
