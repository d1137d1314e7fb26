package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFaultTransportVerdicts exercises each verdict against a live echo
// server: FaultFail errors without I/O, FaultDrop kills the connection,
// FaultPartial completes the send before dropping (the ambiguous outcome),
// and FaultSilent loses a frame with no error at all.
func TestFaultTransportVerdicts(t *testing.T) {
	inner := NewInproc(wire.Text)
	ft := NewFaultTransport(inner)
	s := startEcho(t, ft)
	addr := s.l.Addr()

	req := func(id uint32) *wire.Message {
		return &wire.Message{Type: wire.MsgRequest, RequestID: id, TargetRef: "@x#1#t", Method: "m"}
	}

	// Fail the first send outright; the second passes on a fresh conn.
	ft.Decide = func(i FaultInfo) FaultVerdict {
		if i.Op == FaultSend && i.Global == 1 {
			return FaultFail
		}
		return FaultPass
	}
	c, err := ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(req(1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("first send = %v, want ErrInjected", err)
	}
	c.Close()
	c, err = ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(req(2)); err != nil {
		t.Fatalf("second send: %v", err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatalf("recv after clean send: %v", err)
	}
	c.Close()

	// FaultPartial on send: the peer processes the request even though the
	// caller sees an error — observable as a served request.
	ft.Decide = func(i FaultInfo) FaultVerdict {
		if i.Op == FaultSend && i.PerConn == 1 {
			return FaultPartial
		}
		return FaultPass
	}
	before := s.connCount()
	c, err = ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(req(3)); !errors.Is(err, ErrInjected) {
		t.Fatalf("partial send = %v, want ErrInjected", err)
	}
	// The message went out before the drop; the server saw the connection.
	if got := s.connCount(); got != before+1 {
		t.Errorf("connCount = %d, want %d", got, before+1)
	}
	// The connection is dead now.
	if _, err := c.Recv(); err == nil {
		t.Error("recv on dropped connection succeeded")
	}

	// FaultSilent: the first send and the first receive on the connection
	// report nothing and vanish; the conversation carries on after them.
	ft.Decide = func(i FaultInfo) FaultVerdict {
		if i.Op != FaultDial && i.PerConn == 1 {
			return FaultSilent
		}
		return FaultPass
	}
	c, err = ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(req(4)); err != nil {
		t.Fatalf("silent send = %v, want nil", err)
	}
	// Inproc connections are synchronous pipes: the reader must be running
	// before the server can answer the requests that do arrive.
	got := make(chan uint32, 1)
	go func() {
		r, err := c.Recv()
		if err != nil {
			got <- 0
			return
		}
		got <- r.RequestID
		wire.FreeMessage(r)
	}()
	for id := uint32(5); id <= 6; id++ {
		if err := c.Send(req(id)); err != nil {
			t.Fatalf("send %d after a silent one: %v", id, err)
		}
	}
	if id := <-got; id != 6 {
		t.Errorf("Recv delivered reply %d, want 6 (4 never sent, 5 silently discarded)", id)
	}
	c.Close()
	if n := ft.Verdicts(FaultSend, FaultSilent); n != 1 {
		t.Errorf("silent sends = %d, want 1", n)
	}
	if n := ft.Verdicts(FaultRecv, FaultSilent); n != 1 {
		t.Errorf("silent recvs = %d, want 1", n)
	}

	// FaultFail on dial never reaches the inner transport.
	ft.Decide = func(i FaultInfo) FaultVerdict {
		if i.Op == FaultDial {
			return FaultFail
		}
		return FaultPass
	}
	if _, err := ft.Dial(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted dial = %v, want ErrInjected", err)
	}

	counts := ft.Counts()
	if counts[FaultDial] < 3 || counts[FaultSend] < 3 {
		t.Errorf("counts = %v", counts)
	}
}

// TestFaultOrdinals verifies the 1-based numbering the Decide hook keys on,
// and that operations a blackhole silences are numbered all the same.
func TestFaultOrdinals(t *testing.T) {
	inner := NewInproc(wire.Text)
	ft := NewFaultTransport(inner)
	startEchoAddr := func() string { return startEcho(t, ft).l.Addr() }
	a1, a2 := startEchoAddr(), startEchoAddr()

	var got []FaultInfo
	ft.Decide = func(i FaultInfo) FaultVerdict {
		got = append(got, i)
		return FaultPass
	}

	c1, err := ft.Dial(a1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := ft.Dial(a2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	m := &wire.Message{Type: wire.MsgRequest, RequestID: 1, TargetRef: "@x#1#t", Method: "m"}
	// Inproc connections are synchronous pipes: each reply must be read
	// before the server can serve the next request.
	rt := func(c Conn) {
		t.Helper()
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	rt(c1)
	rt(c2)
	rt(c2)

	// Dark a1: the dial still passes, the send is swallowed, and both take
	// their ordinals.
	ft.Blackhole(a1)
	c3, err := ft.Dial(a1)
	if err != nil {
		t.Fatalf("dial into a blackhole = %v, want success", err)
	}
	defer c3.Close()
	if err := c1.Send(m); err != nil {
		t.Fatalf("send into a blackhole = %v, want nil", err)
	}

	want := []FaultInfo{
		{Op: FaultDial, Addr: a1, Global: 1, PerAddr: 1, PerConn: 0},
		{Op: FaultDial, Addr: a2, Global: 2, PerAddr: 1, PerConn: 0},
		{Op: FaultSend, Addr: a1, Global: 1, PerAddr: 1, PerConn: 1},
		{Op: FaultRecv, Addr: a1, Global: 1, PerAddr: 1, PerConn: 1},
		{Op: FaultSend, Addr: a2, Global: 2, PerAddr: 1, PerConn: 1},
		{Op: FaultRecv, Addr: a2, Global: 2, PerAddr: 1, PerConn: 1},
		{Op: FaultSend, Addr: a2, Global: 3, PerAddr: 2, PerConn: 2},
		{Op: FaultRecv, Addr: a2, Global: 3, PerAddr: 2, PerConn: 2},
		{Op: FaultDial, Addr: a1, Global: 3, PerAddr: 2, PerConn: 0},
		{Op: FaultSend, Addr: a1, Global: 4, PerAddr: 2, PerConn: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d ops %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if n := ft.Verdicts(FaultSend, FaultSilent); n != 1 {
		t.Errorf("silent sends = %d, want 1", n)
	}
}

// startCountServer accepts connections and counts the request frames that
// actually arrive — the ground truth against which lost sends are asserted.
// Frames pushed into emit are sent server→client on the most recent
// connection (to exercise the inbound-discard side of a blackhole).
func startCountServer(t *testing.T, tr Transport) (addr string, got, emit chan *wire.Message) {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got = make(chan *wire.Message, 256)
	emit = make(chan *wire.Message)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			stop := make(chan struct{})
			go func(c Conn) {
				for {
					select {
					case m := <-emit:
						if err := c.Send(m); err != nil {
							return
						}
					case <-stop:
						return
					}
				}
			}(c)
			go func(c Conn) {
				defer c.Close()
				defer close(stop)
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					got <- m
				}
			}(c)
		}
	}()
	return l.Addr(), got, emit
}

// TestFaultScheduleDeterministic: the same seed yields the same fault plan,
// a different seed yields a different one (with overwhelming probability at
// this sample size), for visible loss (FaultDrop) and silent loss
// (FaultSilent) alike; and a FaultDrop plan replays end to end — the send
// errors, the connection dies, and the same seed over the same send
// sequence loses exactly the same frames.
func TestFaultScheduleDeterministic(t *testing.T) {
	for _, loss := range []FaultVerdict{FaultDrop, FaultSilent} {
		plan := func(seed int64) []FaultVerdict {
			d := FaultSchedule(seed, loss, 0.3, 0.3, 0.3)
			var vs []FaultVerdict
			for op := FaultDial; op <= FaultRecv; op++ {
				want := loss
				if op == FaultDial {
					want = FaultFail
				}
				for n := 1; n <= 50; n++ {
					v := d(FaultInfo{Op: op, Global: n})
					if v != FaultPass && v != want {
						t.Fatalf("loss %d: %s #%d drew verdict %d, want %d", loss, op, n, v, want)
					}
					vs = append(vs, v)
				}
			}
			return vs
		}
		a, b, c := plan(42), plan(42), plan(43)
		same := func(x, y []FaultVerdict) bool {
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("loss %d: same seed produced different fault plans", loss)
		}
		if same(a, c) {
			t.Errorf("loss %d: different seeds produced identical fault plans", loss)
		}
		var faults int
		for _, v := range a {
			if v != FaultPass {
				faults++
			}
		}
		if faults == 0 || faults == len(a) {
			t.Errorf("loss %d: p=0.3 schedule injected %d/%d faults", loss, faults, len(a))
		}
	}
	checkLossReplays(t, FaultDrop)
}

// TestChaosDropSendDeterministic: with silent loss scheduled on sends, a
// fraction of frames vanish (Send still returns nil), and the same seed over
// the same send sequence loses exactly the same frames — chaos plans must
// replay.
func TestChaosDropSendDeterministic(t *testing.T) {
	checkLossReplays(t, FaultSilent)
}

// checkLossReplays drives 200 sends through a FaultSchedule that applies
// loss to 30% of them, twice with the same seed, and asserts that every
// frame is accounted for (received or counted as lost) and that both runs
// lose the same frames. A FaultDrop kills the connection, so the sender
// redials; a FaultSilent leaves it open.
func checkLossReplays(t *testing.T, loss FaultVerdict) {
	t.Helper()
	const n = 200
	run := func(seed int64) (received map[uint32]bool, lost int) {
		tr := NewInproc(wire.CDR)
		addr, got, _ := startCountServer(t, tr)
		ft := NewFaultTransport(tr)
		ft.Decide = FaultSchedule(seed, loss, 0, 0.3, 0)
		var c Conn
		for i := uint32(1); i <= n; i++ {
			if c == nil {
				var err error
				if c, err = ft.Dial(addr); err != nil {
					t.Fatal(err)
				}
			}
			err := c.Send(muxReq(i))
			switch {
			case err == nil:
			case loss == FaultDrop && errors.Is(err, ErrInjected):
				c = nil // the drop killed the connection: redial
			default:
				t.Fatalf("loss %d: send %d returned %v", loss, i, err)
			}
		}
		if c != nil {
			defer c.Close()
		}
		received = make(map[uint32]bool)
		lost = ft.Verdicts(FaultSend, loss)
	drain:
		for len(received) < n-lost {
			select {
			case m := <-got:
				received[m.RequestID] = true
				wire.FreeMessage(m)
			case <-time.After(time.Second):
				break drain
			}
		}
		return received, lost
	}

	recvA, lostA := run(42)
	if lostA == 0 || lostA == n {
		t.Fatalf("loss %d: p=0.3 lost %d of %d frames; faults not injected", loss, lostA, n)
	}
	if len(recvA) != n-lostA {
		t.Fatalf("loss %d: server received %d frames, lost %d, sent %d: frames unaccounted for",
			loss, len(recvA), lostA, n)
	}
	recvB, lostB := run(42)
	if lostB != lostA {
		t.Fatalf("loss %d: same seed lost %d then %d frames; plan not deterministic", loss, lostA, lostB)
	}
	for id := range recvA {
		if !recvB[id] {
			t.Fatalf("loss %d: frame %d survived run A but not run B with the same seed", loss, id)
		}
	}
}

// TestChaosBlackholeAndHeal: a blackholed endpoint swallows outbound frames
// (Send succeeds!) and discards inbound ones; Heal restores both directions
// on the same still-open connection.
func TestChaosBlackholeAndHeal(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, got, emit := startCountServer(t, tr)
	ft := NewFaultTransport(tr)
	// Sized to the two receive ordinals this connection ever takes, so the
	// hook never blocks the reader.
	recvTicks := make(chan int, 2)
	ft.Decide = func(i FaultInfo) FaultVerdict {
		if i.Op == FaultRecv {
			recvTicks <- i.PerConn
		}
		return FaultPass
	}
	c, err := ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Healthy: the frame arrives.
	if err := c.Send(muxReq(1)); err != nil {
		t.Fatal(err)
	}
	m := <-got
	if m.RequestID != 1 {
		t.Fatalf("got frame %d, want 1", m.RequestID)
	}
	wire.FreeMessage(m)

	// A reader parked in Recv before the partition, as the mux demux reader
	// always is, must still lose the frames that arrive during it.
	recvd := make(chan *wire.Message, 1)
	go func() {
		if r, err := c.Recv(); err == nil {
			recvd <- r
		}
	}()
	if n := <-recvTicks; n != 1 {
		t.Fatalf("first receive ordinal %d, want 1", n)
	}

	// Dark: sends report success but nothing arrives.
	ft.Blackhole(addr)
	for i := uint32(2); i <= 4; i++ {
		if err := c.Send(muxReq(i)); err != nil {
			t.Fatalf("send into blackhole returned visible error: %v", err)
		}
	}
	select {
	case m := <-got:
		t.Fatalf("frame %d crossed an active blackhole", m.RequestID)
	case <-time.After(50 * time.Millisecond):
	}
	if n := ft.Verdicts(FaultSend, FaultSilent); n != 3 {
		t.Fatalf("Swallowed = %d, want 3", n)
	}

	// Inbound during the blackhole: a server→client frame must be
	// discarded silently by the client's Recv, which keeps blocking — it
	// takes its next receive ordinal once the discard is done.
	emit <- &wire.Message{Type: wire.MsgReply, RequestID: 1, Static: true}
	select {
	case <-recvTicks:
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never moved past the blackholed frame")
	}
	if n := ft.Verdicts(FaultRecv, FaultSilent); n != 1 {
		t.Fatalf("Discarded = %d, want 1", n)
	}

	// Healed: traffic flows again on the SAME connection, in both
	// directions — the blocked Recv completes with the post-heal frame.
	ft.Heal(addr)
	if err := c.Send(muxReq(5)); err != nil {
		t.Fatal(err)
	}
	m5 := <-got
	if m5.RequestID != 5 {
		t.Fatalf("post-heal frame %d, want 5", m5.RequestID)
	}
	wire.FreeMessage(m5)
	emit <- &wire.Message{Type: wire.MsgReply, RequestID: 5, Static: true}
	select {
	case r := <-recvd:
		if r.RequestID != 5 {
			t.Fatalf("post-heal Recv delivered frame %d, want 5", r.RequestID)
		}
		wire.FreeMessage(r)
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never recovered after Heal")
	}
}

// TestChaosBatchFiltersPerFrame: a gathered write through a blackhole loses
// exactly the doomed frames — survivors still go out (in one batch when the
// inner conn supports it), mirroring packet loss from the middle of a burst.
func TestChaosBatchFiltersPerFrame(t *testing.T) {
	tr := NewInproc(wire.CDR)
	addr, got, _ := startCountServer(t, tr)
	ft := NewFaultTransport(tr)
	c, err := ft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ft.Blackhole(addr)
	batch := []*wire.Message{muxReq(1), muxReq(2), muxReq(3)}
	if err := c.(BatchSender).SendBatch(batch); err != nil {
		t.Fatalf("blackholed batch returned visible error: %v", err)
	}
	if n := ft.Verdicts(FaultSend, FaultSilent); n != 3 {
		t.Fatalf("Swallowed = %d after blackholed batch, want 3", n)
	}
	ft.Heal(addr)
	if err := c.(BatchSender).SendBatch([]*wire.Message{muxReq(4), muxReq(5)}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint32{4, 5} {
		select {
		case m := <-got:
			if m.RequestID != want {
				t.Fatalf("batch frame %d, want %d", m.RequestID, want)
			}
			wire.FreeMessage(m)
		case <-time.After(time.Second):
			t.Fatalf("healed batch frame %d never arrived", want)
		}
	}
}

// leaseConn is an inner connection whose every Recv hands out a fresh frame
// sharing src's body lease, until frames run out.
type leaseConn struct {
	Conn
	src    *wire.Message
	frames int
}

func (c *leaseConn) Recv() (*wire.Message, error) {
	if c.frames == 0 {
		return nil, wire.ErrClosed
	}
	c.frames--
	m := wire.NewMessage()
	c.src.ShareBodyInto(m)
	return m, nil
}

func (c *leaseConn) Close() error { return nil }

// TestFaultRecvFreesConsumedFrames: every inbound frame the injector
// swallows — the one a FaultPartial receive reads and discards, a
// FaultSilent one, a blackholed one — gives its body lease back, so the
// source lease is left with the test's own reference only.
func TestFaultRecvFreesConsumedFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict FaultVerdict // Decide's verdict for the first receive
		dark    bool
		consume FaultVerdict // the verdict the consumed frames are counted under
	}{
		{"partial", FaultPartial, false, FaultPartial},
		{"silent", FaultSilent, false, FaultSilent},
		{"blackholed", FaultPass, true, FaultSilent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &wire.Message{Body: []byte("leased payload")}
			src.EnsureLeased()
			defer src.ReleaseBody()
			ft := NewFaultTransport(nil)
			ft.Decide = func(i FaultInfo) FaultVerdict {
				if i.PerConn == 1 {
					return tc.verdict
				}
				return FaultPass
			}
			if tc.dark {
				ft.Blackhole("peer")
			}
			c := &faultConn{Conn: &leaseConn{src: src, frames: 2}, t: ft, addr: "peer"}
			m, err := c.Recv()
			if tc.verdict == FaultPartial && !errors.Is(err, ErrInjected) {
				t.Errorf("partial recv = %v, want ErrInjected", err)
			}
			wire.FreeMessage(m) // the frame a receive delivered, if any
			if n := ft.Verdicts(FaultRecv, tc.consume); n == 0 {
				t.Errorf("no receive ended %d; nothing was consumed", tc.consume)
			}
			if refs := src.LeaseRefs(); refs != 1 {
				t.Errorf("source lease refs = %d after the discard, want 1 (the test's own)", refs)
			}
		})
	}
}
