package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Connection liveness (DESIGN §15). TCP happily keeps a connection "open"
// long after the path beneath it has gone silent — a yanked cable, a
// wedged peer, a stateful middlebox that dropped the flow. On the
// exclusive-checkout path one caller eats the stall; on the multiplexed
// path a single quiet connection wedges every pipelined caller until their
// individual deadlines fire, and the pool keeps handing the corpse out
// because nothing has errored yet. The keepalive prober turns "silent" into
// "broken": idle shared connections are pinged (wire.MsgPing, negotiated
// via wire.FeatureKeepalive), and a connection that answers nothing past
// the timeout is torn down with ErrConnStuck so callers fail fast onto a
// fresh dial. The exclusive pool gets the same medicine at checkout via
// PingProbe: an idle cached connection is probed before being handed out,
// catching corpses while no call is riding on them.

// ErrConnStuck is the terminal error of a connection the keepalive prober
// declared dead: a liveness probe went unanswered past the timeout while
// no other frame arrived. The peer may still have processed requests that
// were in flight, so calls failing with it are ambiguous, like any other
// mid-call connection loss.
var ErrConnStuck = errors.New("transport: connection stuck: keepalive probe unanswered")

// StuckIntervals is how many keepalive intervals an unanswered ping — with
// no other inbound frame either — may stand before the connection is
// declared stuck and evicted.
const StuckIntervals = 3

// nowNanos is the keepalive clock: monotonic-enough wall nanos for "how
// long since the last frame" arithmetic.
func nowNanos() int64 { return time.Now().UnixNano() }

// startKeepalive launches the prober goroutine on a shared connection,
// pinging after interval of silence. It must be called once, before the
// connection is handed to any caller.
func (m *MuxConn) startKeepalive(interval time.Duration) {
	m.lastRecv.Store(nowNanos())
	go m.keepalive(interval, StuckIntervals*interval)
}

// keepalive is the prober loop. It wakes at most once per interval while
// the connection carries traffic (any inbound frame counts as proof of
// life, so busy connections are never pinged), pings across quiet windows,
// and evicts the connection when a ping has gone unanswered — with nothing
// else inbound either — for the timeout. It exits when the demux reader
// does (m.done).
func (m *MuxConn) keepalive(interval, timeout time.Duration) {
	t := time.NewTimer(interval)
	defer t.Stop()
	var pingAt int64 // when the outstanding ping went out; 0 = none
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		now := nowNanos()
		last := m.lastRecv.Load()
		if pingAt != 0 && last < pingAt {
			// Ping outstanding and the connection has been silent since
			// it went out.
			remaining := pingAt + int64(timeout) - now
			if remaining <= 0 {
				m.evictStuck()
				return
			}
			t.Reset(time.Duration(remaining))
			continue
		}
		pingAt = 0
		if idle := time.Duration(now - last); idle < interval {
			// Traffic within the window: sleep out the remainder.
			t.Reset(interval - idle)
			continue
		}
		// A quiet interval: probe. The ping's RequestID only needs to be
		// recognizable in a packet capture — pongs are routed by type, not
		// matched to a pending entry — so a per-connection counter does.
		ping := &wire.Message{Type: wire.MsgPing, RequestID: uint32(m.kaPings.Add(1)), Static: true}
		// Stamp BEFORE sending: on a synchronous transport the pong can be
		// answered and lastRecv stamped before send even returns, and a
		// pingAt taken after would read that answer as pre-ping silence —
		// evicting a healthy connection one timeout later.
		pingAt = nowNanos()
		if err := m.send(ping); err != nil {
			// A failed send already poisoned or closed the connection;
			// the demux reader delivers the verdict.
			return
		}
		wait := interval
		if timeout < wait {
			wait = timeout
		}
		t.Reset(wait)
	}
}

// evictStuck tears down a connection whose liveness probe went unanswered.
// Only the underlying conn is closed here: the demux reader's Recv then
// fails and runs the single fail() path, which substitutes ErrConnStuck
// for the close-induced read error. Routing the eviction through fail()
// keeps exactly one goroutine responsible for terminal state (no double
// close of m.done, no racing deliveries to pending callers).
func (m *MuxConn) evictStuck() {
	m.mu.Lock()
	m.stuck = true
	m.mu.Unlock()
	m.conn.Close()
}

// wasStuck reports whether the keepalive prober evicted this connection.
func (m *MuxConn) wasStuck() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stuck
}

// answerPing replies to a peer's liveness probe. It runs on the demux
// goroutine; the send is one small frame through the usual serialized
// writer. If the write side is wedged the demux reader blocks here — which
// stalls lastRecv and lets our own prober (when configured) evict the
// connection, so the block is self-limiting.
func (m *MuxConn) answerPing(id uint32) {
	pong := &wire.Message{Type: wire.MsgPong, RequestID: id, Static: true}
	// Best effort: a failed send closes the connection and the next Recv
	// surfaces it.
	m.send(pong)
}

// probeID distinguishes concurrent PingProbe pings in packet captures.
var probeID atomic.Uint32

// maxProbeSkip bounds how many non-pong frames PingProbe reads past while
// awaiting its answer (late replies abandoned on an exclusive connection by
// a timed-out caller, stale pongs from an interrupted earlier probe).
const maxProbeSkip = 8

// PingProbe returns a checkout-time liveness probe for Pool.Probe: it sends
// one ping on the idle connection and waits up to timeout for the pong,
// tolerating a bounded amount of stale traffic left on the stream.
// Exclusive-pool connections have no concurrent reader while idle, so the
// probe may Recv freely. Peers that negotiated away wire.FeatureKeepalive
// are assumed alive (returning an error would evict every legacy connection
// at every probe interval).
func PingProbe(timeout time.Duration) func(Conn) error {
	return func(c Conn) error {
		if neg, ok := Negotiation(c); ok && !neg.Allows(wire.FeatureKeepalive) {
			return nil
		}
		if timeout > 0 {
			c.SetDeadline(time.Now().Add(timeout))
			defer c.SetDeadline(time.Time{})
		}
		ping := &wire.Message{Type: wire.MsgPing, RequestID: probeID.Add(1), Static: true}
		if err := c.Send(ping); err != nil {
			return fmt.Errorf("transport: liveness probe send: %w", err)
		}
		for skipped := 0; skipped <= maxProbeSkip; skipped++ {
			m, err := c.Recv()
			if err != nil {
				return fmt.Errorf("transport: liveness probe: %w", err)
			}
			typ, id := m.Type, m.RequestID
			wire.FreeMessage(m)
			switch typ {
			case wire.MsgPong:
				if id == ping.RequestID {
					return nil
				}
				// A stale pong from an interrupted earlier probe: the
				// answer to this ping is still in flight behind it.
			case wire.MsgGoAway:
				// The peer is draining: alive, but this connection must
				// not carry new calls.
				return errors.New("transport: liveness probe: peer draining")
			default:
				// A late reply abandoned by a previous checkout: skip it.
			}
		}
		return fmt.Errorf("transport: liveness probe: no pong within %d frames", maxProbeSkip)
	}
}
