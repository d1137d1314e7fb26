package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// FaultTransport wraps another Transport and injects failures into its
// client-side operations — deterministically, so every retry, breaker and
// liveness path can be exercised in tests without real sockets, flaky timing
// or sleeps. Server-side Listen/Accept pass through untouched.
//
// Each dial, send and receive is numbered (globally, per endpoint, and per
// connection) and the Decide hook maps those ordinals to a verdict: pass,
// fail before any I/O, drop the connection, complete the I/O and then fail
// (the ambiguous "partial" outcome where the peer may have processed the
// request), or lose it silently — the failure nothing reports, which only
// the liveness layer can detect. Blackhole(addr) silences a whole endpoint at
// runtime, and FaultSchedule derives verdicts from a seed for pseudo-random
// but reproducible fault plans.

// FaultOp identifies one class of transport operation.
type FaultOp int

const (
	// FaultDial is an outbound connection attempt.
	FaultDial FaultOp = iota
	// FaultSend is one message write on a connection.
	FaultSend
	// FaultRecv is one message read on a connection.
	FaultRecv
)

// String names the operation for error messages.
func (o FaultOp) String() string {
	switch o {
	case FaultDial:
		return "dial"
	case FaultSend:
		return "send"
	case FaultRecv:
		return "recv"
	}
	return fmt.Sprintf("FaultOp(%d)", int(o))
}

// FaultVerdict is what happens to one operation. Decide must return one of
// the constants below.
type FaultVerdict int

const (
	// FaultPass performs the operation normally.
	FaultPass FaultVerdict = iota
	// FaultFail returns an injected error without touching the wire —
	// the request definitely never reached the peer.
	FaultFail
	// FaultDrop closes the underlying connection, then errors — a
	// connection drop before the operation's bytes were written.
	FaultDrop
	// FaultPartial performs the I/O, then closes the connection and
	// errors — the ambiguous outcome: the peer may have received (and
	// processed) the message, but the caller sees a failure.
	FaultPartial
	// FaultSilent loses the operation without an error: a send reports
	// success and writes nothing, a receive frees the next inbound frame
	// and keeps reading. A silent dial passes.
	FaultSilent
)

// faultWhat phrases each visible verdict for the injected error.
var faultWhat = [...]string{
	FaultFail:    "failed",
	FaultDrop:    "connection dropped before",
	FaultPartial: "connection dropped after",
}

// FaultInfo describes one operation to the Decide hook. All ordinals are
// 1-based.
type FaultInfo struct {
	Op   FaultOp
	Addr string
	// Global is the ordinal of this operation kind across the transport.
	Global int
	// PerAddr is the ordinal of this operation kind toward Addr.
	PerAddr int
	// PerConn is the ordinal on this connection (0 for dials).
	PerConn int
}

// ErrInjected is the root of every injected failure; match it with
// errors.Is to distinguish injected faults from real transport errors.
var ErrInjected = errors.New("transport: injected fault")

// FaultTransport decorates Inner with fault injection. Safe for concurrent
// use to the same degree as Inner.
type FaultTransport struct {
	Inner Transport

	// Decide is consulted before every dial/send/recv; nil means pass. It
	// runs outside the transport's lock, so it may call Blackhole or Heal.
	Decide func(FaultInfo) FaultVerdict

	mu       sync.Mutex
	global   [FaultRecv + 1]int
	perAddr  map[string][FaultRecv + 1]int
	verdicts [FaultRecv + 1][FaultSilent + 1]int
	dark     map[string]bool // blackholed endpoints
}

// NewFaultTransport wraps inner with no faults configured; set Decide (or
// call Blackhole) before or during use.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{Inner: inner, perAddr: make(map[string][FaultRecv + 1]int), dark: make(map[string]bool)}
}

// Name implements Transport; references keep the inner scheme so they stay
// interchangeable with un-faulted peers.
func (t *FaultTransport) Name() string { return t.Inner.Name() }

// Listen implements Transport; the server side is never faulted.
func (t *FaultTransport) Listen(addr string) (Listener, error) { return t.Inner.Listen(addr) }

// Blackhole makes addr go dark: every send and receive on its connections,
// existing and future, that Decide passes is silent instead. Dials still
// succeed — the scenario is the wedged established connection.
func (t *FaultTransport) Blackhole(addr string) {
	t.mu.Lock()
	t.dark[addr] = true
	t.mu.Unlock()
}

// Heal lifts addr's blackhole; connections that survived it resume
// delivering.
func (t *FaultTransport) Heal(addr string) {
	t.mu.Lock()
	delete(t.dark, addr)
	t.mu.Unlock()
}

// tick numbers an operation and asks Decide what to do with it.
func (t *FaultTransport) tick(op FaultOp, addr string, perConn int) (FaultInfo, FaultVerdict) {
	t.mu.Lock()
	t.global[op]++
	pa := t.perAddr[addr]
	pa[op]++
	t.perAddr[addr] = pa
	info := FaultInfo{Op: op, Addr: addr, Global: t.global[op], PerAddr: pa[op], PerConn: perConn}
	t.mu.Unlock()

	if t.Decide == nil {
		return info, FaultPass
	}
	return info, t.Decide(info)
}

// settle fixes the verdict an operation ends with — a send or receive
// Decide passed on a blackholed endpoint is silent — and counts it.
func (t *FaultTransport) settle(info FaultInfo, v FaultVerdict) FaultVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v == FaultPass && info.Op != FaultDial && t.dark[info.Addr] {
		v = FaultSilent
	}
	t.verdicts[info.Op][v]++
	return v
}

// Counts reports how many operations of each kind have been observed —
// handy for asserting that a tripped breaker stops dialing.
func (t *FaultTransport) Counts() [FaultRecv + 1]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.global
}

// Verdicts reports how many operations of kind op ended with verdict v, so
// a test can assert that the loss it planned actually happened.
func (t *FaultTransport) Verdicts(op FaultOp, v FaultVerdict) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.verdicts[op][v]
}

// injected builds the error a visible verdict returns.
func injected(info FaultInfo, v FaultVerdict) error {
	return fmt.Errorf("%w: %s %s #%d (%s)", ErrInjected, faultWhat[v], info.Op, info.Global, info.Addr)
}

// Dial implements Transport.
func (t *FaultTransport) Dial(addr string) (Conn, error) {
	info, v := t.tick(FaultDial, addr, 0)
	if v = t.settle(info, v); v != FaultPass && v != FaultSilent {
		return nil, injected(info, v)
	}
	c, err := t.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, t: t, addr: addr}, nil
}

// faultConn numbers and faults one connection's sends and receives. The
// write side has one owner at a time (the pool's checkout, the mux's send
// lock, the coalescer's writing flag) and Recv is single-consumer, so the
// plain counters are safe.
type faultConn struct {
	Conn
	t     *FaultTransport
	addr  string
	sends int
	recvs int
}

// fault closes the connection for FaultDrop and FaultPartial and returns
// the error of the I/O the verdict let through, else the verdict's own.
func (c *faultConn) fault(info FaultInfo, v FaultVerdict, err error) error {
	if v == FaultDrop || v == FaultPartial {
		c.Conn.Close()
	}
	if err != nil {
		return err
	}
	return injected(info, v)
}

// Send implements Conn as the one-frame batch.
func (c *faultConn) Send(m *wire.Message) error {
	return c.SendBatch([]*wire.Message{m})
}

// SendBatch implements BatchSender. Every frame is numbered and judged on
// its own: silent frames drop out of the batch and the survivors still leave
// in one gathered write, like packets lost from the middle of a burst. A
// visible verdict writes the surviving prefix — through the faulted frame
// for FaultPartial — and fails the batch, so a schedule can kill the
// connection mid-batch.
func (c *faultConn) SendBatch(ms []*wire.Message) error {
	live := make([]*wire.Message, 0, len(ms))
	for _, m := range ms {
		c.sends++
		info, v := c.t.tick(FaultSend, c.addr, c.sends)
		switch v = c.t.settle(info, v); v {
		case FaultSilent:
			continue
		case FaultPass:
			live = append(live, m)
			continue
		case FaultPartial:
			live = append(live, m)
		}
		return c.fault(info, v, c.write(live))
	}
	return c.write(live)
}

// write sends ms on the inner connection, gathered when it can batch.
func (c *faultConn) write(ms []*wire.Message) error {
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

// Recv implements Conn. Decide rules before the read, so FaultFail and
// FaultDrop touch no frame, but a blackhole is checked after the frame
// arrives: the mux reader is always blocked here, and a check before the
// read would let the first frame after Blackhole through. Every frame the
// injector consumes is freed.
func (c *faultConn) Recv() (*wire.Message, error) {
	for {
		c.recvs++
		info, v := c.t.tick(FaultRecv, c.addr, c.recvs)
		if v == FaultFail || v == FaultDrop {
			return nil, c.fault(info, c.t.settle(info, v), nil)
		}
		m, err := c.Conn.Recv()
		if err != nil {
			return nil, err
		}
		switch c.t.settle(info, v) {
		case FaultPass:
			return m, nil
		case FaultPartial:
			wire.FreeMessage(m)
			return nil, c.fault(info, FaultPartial, nil)
		}
		wire.FreeMessage(m) // silent: keep reading
	}
}

// FaultSchedule returns a Decide hook that loses each operation kind with
// the given probability, derived purely from the seed and the operation's
// global ordinal — the same seed always produces the same fault plan for a
// given call order, and the plan for operation n does not depend on how
// operations interleave across goroutines. A lost send or receive gets the
// loss verdict (FaultDrop for visible loss, FaultSilent for silent loss); a
// lost dial always fails, since a silent dial would pass.
func FaultSchedule(seed int64, loss FaultVerdict, pDial, pSend, pRecv float64) func(FaultInfo) FaultVerdict {
	prob := [...]float64{FaultDial: pDial, FaultSend: pSend, FaultRecv: pRecv}
	return func(info FaultInfo) FaultVerdict {
		x := splitmix64(uint64(seed) ^ uint64(info.Op)<<56 ^ uint64(info.Global))
		switch {
		case float64(x>>11)/float64(1<<53) >= prob[info.Op]:
			return FaultPass
		case info.Op == FaultDial:
			return FaultFail
		}
		return loss
	}
}

// splitmix64 is the SplitMix64 mixing function — a tiny, dependency-free
// way to turn (seed, ordinal) into well-distributed bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
