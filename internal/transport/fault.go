package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// FaultTransport wraps another Transport and injects failures into its
// client-side operations — deterministically, so every retry and breaker
// path can be exercised in tests without real sockets, flaky timing or
// sleeps. Server-side Listen/Accept pass through untouched.
//
// Each dial, send and receive is numbered (globally, per endpoint, and per
// connection) and the Decide hook maps those ordinals to a verdict:
// pass, fail before any I/O, drop the connection, or complete the I/O and
// then fail (the ambiguous "partial" outcome where the peer may have
// processed the request). FaultSchedule derives verdicts from a seed for
// pseudo-random but reproducible fault plans.

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

// FaultVerdict is what happens to one operation.
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
)

// FaultInfo describes one operation to the Decide and Delay hooks. All
// ordinals are 1-based.
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

	// Decide is consulted before every dial/send/recv; nil means pass.
	Decide func(FaultInfo) FaultVerdict
	// Delay, when set, injects latency before the operation (applied to
	// passing and failing operations alike).
	Delay func(FaultInfo) time.Duration

	mu      sync.Mutex
	global  map[FaultOp]int
	perAddr map[string]map[FaultOp]int
}

// NewFaultTransport wraps inner with no faults configured; set Decide (and
// optionally Delay) before use.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{Inner: inner}
}

// Name implements Transport; references keep the inner scheme so they stay
// interchangeable with un-faulted peers.
func (t *FaultTransport) Name() string { return t.Inner.Name() }

// Listen implements Transport; the server side is never faulted.
func (t *FaultTransport) Listen(addr string) (Listener, error) { return t.Inner.Listen(addr) }

// tick numbers an operation and asks the hooks what to do with it.
func (t *FaultTransport) tick(op FaultOp, addr string, perConn int) (FaultInfo, FaultVerdict) {
	t.mu.Lock()
	if t.global == nil {
		t.global = make(map[FaultOp]int)
		t.perAddr = make(map[string]map[FaultOp]int)
	}
	t.global[op]++
	pa := t.perAddr[addr]
	if pa == nil {
		pa = make(map[FaultOp]int)
		t.perAddr[addr] = pa
	}
	pa[op]++
	info := FaultInfo{Op: op, Addr: addr, Global: t.global[op], PerAddr: pa[op], PerConn: perConn}
	t.mu.Unlock()

	if t.Delay != nil {
		if d := t.Delay(info); d > 0 {
			time.Sleep(d)
		}
	}
	verdict := FaultPass
	if t.Decide != nil {
		verdict = t.Decide(info)
	}
	return info, verdict
}

// Counts reports how many operations of each kind have been observed —
// handy for asserting that a tripped breaker stops dialing.
func (t *FaultTransport) Counts() map[FaultOp]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[FaultOp]int, len(t.global))
	for op, n := range t.global {
		m[op] = n
	}
	return m
}

// Dial implements Transport.
func (t *FaultTransport) Dial(addr string) (Conn, error) {
	info, verdict := t.tick(FaultDial, addr, 0)
	if verdict != FaultPass {
		return nil, fmt.Errorf("%w: dial %s (dial #%d)", ErrInjected, addr, info.Global)
	}
	c, err := t.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, t: t, addr: addr}, nil
}

// faultConn numbers and faults one connection's sends and receives. Conn's
// contract (no concurrent Send, no concurrent Recv) makes the plain
// counters safe.
type faultConn struct {
	Conn
	t     *FaultTransport
	addr  string
	sends int
	recvs int
}

func (c *faultConn) Send(m *wire.Message) error {
	c.sends++
	info, verdict := c.t.tick(FaultSend, c.addr, c.sends)
	switch verdict {
	case FaultFail:
		return fmt.Errorf("%w: send to %s (send #%d)", ErrInjected, c.addr, info.Global)
	case FaultDrop:
		c.Conn.Close()
		return fmt.Errorf("%w: connection to %s dropped before send #%d", ErrInjected, c.addr, info.Global)
	case FaultPartial:
		err := c.Conn.Send(m)
		c.Conn.Close()
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: connection to %s dropped during send #%d", ErrInjected, c.addr, info.Global)
	}
	return c.Conn.Send(m)
}

// SendBatch implements BatchSender: every frame in the batch is numbered and
// ticked individually, so a schedule can kill the connection mid-batch — the
// passing prefix reaches the peer, the faulted frame and everything after it
// do not. This is what the coalescing-writer torture tests drive.
func (c *faultConn) SendBatch(ms []*wire.Message) error {
	bs, ok := c.Conn.(BatchSender)
	if !ok {
		for _, m := range ms {
			if err := c.Send(m); err != nil {
				return err
			}
		}
		return nil
	}
	for i, m := range ms {
		_ = m
		c.sends++
		info, verdict := c.t.tick(FaultSend, c.addr, c.sends)
		switch verdict {
		case FaultPass:
			continue
		case FaultFail:
			if i > 0 {
				if err := bs.SendBatch(ms[:i]); err != nil {
					return err
				}
			}
			return fmt.Errorf("%w: send to %s (send #%d, batch frame %d/%d)", ErrInjected, c.addr, info.Global, i+1, len(ms))
		case FaultDrop:
			if i > 0 {
				if err := bs.SendBatch(ms[:i]); err != nil {
					return err
				}
			}
			c.Conn.Close()
			return fmt.Errorf("%w: connection to %s dropped before send #%d (batch frame %d/%d)", ErrInjected, c.addr, info.Global, i+1, len(ms))
		case FaultPartial:
			err := bs.SendBatch(ms[:i+1])
			c.Conn.Close()
			if err != nil {
				return err
			}
			return fmt.Errorf("%w: connection to %s dropped during send #%d (batch frame %d/%d)", ErrInjected, c.addr, info.Global, i+1, len(ms))
		}
	}
	return bs.SendBatch(ms)
}

func (c *faultConn) Recv() (*wire.Message, error) {
	c.recvs++
	info, verdict := c.t.tick(FaultRecv, c.addr, c.recvs)
	switch verdict {
	case FaultFail:
		return nil, fmt.Errorf("%w: recv from %s (recv #%d)", ErrInjected, c.addr, info.Global)
	case FaultDrop:
		c.Conn.Close()
		return nil, fmt.Errorf("%w: connection to %s dropped before recv #%d", ErrInjected, c.addr, info.Global)
	case FaultPartial:
		if _, err := c.Conn.Recv(); err != nil {
			c.Conn.Close()
			return nil, err
		}
		c.Conn.Close()
		return nil, fmt.Errorf("%w: reply from %s discarded at recv #%d", ErrInjected, c.addr, info.Global)
	}
	return c.Conn.Recv()
}

// FaultSchedule returns a Decide hook failing each operation kind with the
// given probability, derived purely from the seed and the operation's
// global ordinal — the same seed always produces the same fault plan for a
// given call order, and the plan for operation n does not depend on how
// operations interleave across goroutines.
func FaultSchedule(seed int64, pDial, pSend, pRecv float64) func(FaultInfo) FaultVerdict {
	prob := map[FaultOp]float64{FaultDial: pDial, FaultSend: pSend, FaultRecv: pRecv}
	return func(info FaultInfo) FaultVerdict {
		p := prob[info.Op]
		if p <= 0 {
			return FaultPass
		}
		x := splitmix64(uint64(seed) ^ uint64(info.Op)<<56 ^ uint64(info.Global))
		if float64(x>>11)/float64(1<<53) < p {
			if info.Op == FaultDial {
				return FaultFail
			}
			return FaultDrop
		}
		return FaultPass
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
