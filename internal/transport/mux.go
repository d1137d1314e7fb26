package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// This file is the multiplexed counterpart to the exclusive-checkout pool:
// instead of binding one cached connection to each in-flight call (§3.1's
// literal model), any number of concurrent callers interleave their
// request/reply frames over one shared connection per endpoint, the way
// GIOP-style ORBs pipeline invocations. The wire Message already carries the
// RequestID needed to pair replies with callers; MuxConn exploits it with a
// single serialized writer and one demultiplexing reader goroutine.

// ErrMuxTimeout is returned by PendingReply.Wait when the per-call deadline
// fires before the reply arrives. The request stays abandoned — a late reply
// is dropped by the demux reader — but the shared connection stays up, which
// is exactly what SetDeadline (connection-global) could not provide.
var ErrMuxTimeout = errors.New("transport: timed out awaiting multiplexed reply")

// muxResult is what a waiting caller receives: a reply or the connection's
// terminal error.
type muxResult struct {
	reply *wire.Message
	err   error
}

// resultChPool recycles the per-call completion channels. A channel may be
// recycled only after its owner received a value cleanly: routing and
// failure each deliver at most one send (the pending-map delete is atomic
// with the route), so a received-from channel is provably empty. The timeout
// and send-error paths never recycle — a late route may still be in flight
// toward the channel there.
var resultChPool = sync.Pool{
	New: func() any { return make(chan muxResult, 1) },
}

// MuxConn shares one Conn among any number of concurrent callers. Sends are
// serialized by a writer mutex; a dedicated reader goroutine receives every
// inbound message and routes replies to the in-flight call registered under
// the matching RequestID. When the connection dies, every in-flight call
// fails with the terminal error — the caller cannot know whether the peer
// processed its request, so the failure is inherently ambiguous.
type MuxConn struct {
	conn Conn
	co   *Coalescer // when non-nil, all sends route through the coalescer

	sendMu sync.Mutex // the single writer: whole frames, never interleaved

	mu      sync.Mutex
	pending map[uint32]chan muxResult // RequestID -> waiting caller
	err     error                     // terminal error, set once by the reader
	late    int                       // replies that arrived after their caller gave up

	inflight atomic.Int32 // len(pending), readable without the mutex
	broken   atomic.Bool  // mirrors err != nil, readable without the mutex
	draining atomic.Bool  // peer sent GOAWAY: no new calls, replies still flow

	// Keepalive state (keepalive.go). lastRecv is stamped by the demux
	// reader on every inbound frame — any frame proves the peer's write
	// side and our read side are both alive, so pings are sent only across
	// genuinely quiet windows. stuck (under mu) records that the keepalive
	// prober, not the peer, killed the connection, so fail() can report
	// ErrConnStuck instead of the uninformative "use of closed connection".
	lastRecv atomic.Int64 // UnixNano of the last inbound frame
	kaPings  atomic.Int64 // keepalive pings sent on this connection
	kaPongs  atomic.Int64 // pongs received
	stuck    bool         // under mu: evicted by the keepalive prober

	// onGoAway, when set, runs once when the peer announces it is draining
	// (first GOAWAY frame). It runs on the demux goroutine: keep it short.
	onGoAway func()

	done chan struct{} // closed when the demux reader exits
}

// NewMuxConn wraps c and starts its demux reader. The MuxConn owns c: do
// not Send or Recv on it directly afterwards.
func NewMuxConn(c Conn) *MuxConn { return newMuxConn(c, false, nil) }

// newMuxConn is the full constructor. With coalesce set, concurrent callers'
// frames are batched into gathered writes (DESIGN.md §9) instead of each
// taking the writer lock and a syscall. onGoAway (may be nil) is installed
// before the demux reader starts, so the first GOAWAY frame cannot race the
// callback's registration.
func newMuxConn(c Conn, coalesce bool, onGoAway func()) *MuxConn {
	m := &MuxConn{
		conn:     c,
		pending:  make(map[uint32]chan muxResult),
		onGoAway: onGoAway,
		done:     make(chan struct{}),
	}
	if coalesce {
		m.co = NewCoalescer(c)
	}
	go m.demux()
	return m
}

// demux is the reader goroutine: it routes each reply to the caller
// registered under its RequestID and fails every in-flight call when the
// connection dies. Replies whose caller already gave up (per-call deadline)
// are counted and dropped.
func (m *MuxConn) demux() {
	for {
		r, err := m.conn.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		m.lastRecv.Store(nowNanos())
		if r.Type == wire.MsgPing {
			// Peer liveness probe: answer out of band, never dispatched.
			id := r.RequestID
			wire.FreeMessage(r)
			m.answerPing(id)
			continue
		}
		if r.Type == wire.MsgPong {
			wire.FreeMessage(r)
			m.kaPongs.Add(1)
			continue
		}
		if r.Type == wire.MsgGoAway {
			// The peer is draining: mark the connection so the pool stops
			// handing it out, but keep reading — replies to requests already
			// in flight still arrive on this stream.
			wire.FreeMessage(r)
			if m.draining.CompareAndSwap(false, true) && m.onGoAway != nil {
				m.onGoAway()
			}
			continue
		}
		if r.Type != wire.MsgReply {
			wire.FreeMessage(r) // requests/noise on a client channel: drop
			continue
		}
		m.mu.Lock()
		ch, ok := m.pending[r.RequestID]
		if ok {
			delete(m.pending, r.RequestID)
			m.inflight.Add(-1)
		} else {
			m.late++
		}
		m.mu.Unlock()
		if ok {
			ch <- muxResult{reply: r} // buffered: never blocks the reader
		} else {
			wire.FreeMessage(r) // caller gave up: release the body lease
		}
	}
}

// fail marks the connection dead and delivers err to every in-flight call.
func (m *MuxConn) fail(err error) {
	m.conn.Close()
	m.mu.Lock()
	if m.err == nil {
		if m.stuck {
			// The keepalive prober closed the connection from under the
			// reader; the Recv error it produced ("use of closed
			// connection") hides the real diagnosis.
			err = ErrConnStuck
		}
		m.err = err
	} else {
		err = m.err
	}
	// Mark the connection broken and dead before any caller observes its
	// failure, so a failed call's immediate retry never draws it again.
	m.broken.Store(true)
	pend := m.pending
	m.pending = nil
	m.inflight.Store(0)
	m.mu.Unlock()
	close(m.done)
	for _, ch := range pend {
		ch <- muxResult{err: fmt.Errorf("transport: shared connection failed: %w", err)}
	}
	if m.co != nil {
		// Resolve any frames still queued in the coalescer (ErrNotSent) and
		// stop its flusher. The connection is already closed above.
		m.co.Close()
	}
}

// send is the single serialized writer. A failed write may have left a
// partial frame on the stream, poisoning the framing for every other call,
// so the connection is killed — the demux reader then fails the rest.
func (m *MuxConn) send(req *wire.Message) error {
	var err error
	if m.co != nil {
		// Group commit: with other calls already awaiting replies on this
		// shared connection, more frames are imminent — skip the direct
		// write so the flusher can gather them. A lone caller (inflight
		// counts this call once registered) keeps the direct path.
		if m.inflight.Load() > 1 {
			err = m.co.SendBatched(req)
		} else {
			err = m.co.Send(req)
		}
	} else {
		m.sendMu.Lock()
		err = m.conn.Send(req)
		m.sendMu.Unlock()
	}
	if err != nil && !errors.Is(err, ErrNotSent) {
		// ErrNotSent frames never touched the stream, so the framing is
		// intact; everything else may have poisoned it.
		m.conn.Close()
	}
	return err
}

// Invoke registers req's RequestID and sends the request. The returned
// PendingReply completes when the matching reply arrives or the connection
// dies. An Invoke error means the request did not go out whole (no reply
// will ever come, and the peer cannot have processed it).
func (m *MuxConn) Invoke(req *wire.Message) (*PendingReply, error) {
	ch := resultChPool.Get().(chan muxResult)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	if _, dup := m.pending[req.RequestID]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: duplicate request id %d on shared connection", req.RequestID)
	}
	m.pending[req.RequestID] = ch
	m.inflight.Add(1)
	m.mu.Unlock()

	if err := m.send(req); err != nil {
		m.forget(req.RequestID)
		return nil, err
	}
	p := pendingPool.Get().(*PendingReply)
	p.m, p.id, p.ch = m, req.RequestID, ch
	return p, nil
}

// SendOneway sends a request expecting no reply.
func (m *MuxConn) SendOneway(req *wire.Message) error {
	m.mu.Lock()
	err := m.err
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.send(req)
}

// forget deregisters an in-flight call (send failure or per-call timeout).
func (m *MuxConn) forget(id uint32) {
	m.mu.Lock()
	if _, ok := m.pending[id]; ok { // nil map after fail: absent, no-op
		delete(m.pending, id)
		m.inflight.Add(-1)
	}
	m.mu.Unlock()
}

// Dead reports whether the demux reader has exited (the connection is
// unusable and a fresh one must be dialed).
func (m *MuxConn) Dead() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Err returns the terminal connection error, or nil while the connection is
// live.
func (m *MuxConn) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// healthy reports whether the shared connection can still carry calls: the
// demux reader has seen no terminal error and the coalescing writer (if any)
// has not been poisoned by a write failure. The write side can die first —
// and under heavy retry pressure the reader goroutine may not have run yet —
// so the pool checks both before handing the connection out again. Both
// checks are lock-free: this runs inside every MuxPool.Get.
func (m *MuxConn) healthy() bool {
	if m.broken.Load() || m.draining.Load() {
		return false
	}
	return m.co == nil || !m.co.dead()
}

// Draining reports whether the peer announced (via GOAWAY) that it is
// shutting down: in-flight replies still arrive, but no new calls should be
// pipelined onto this connection.
func (m *MuxConn) Draining() bool { return m.draining.Load() }

// InFlight reports the number of calls awaiting replies.
func (m *MuxConn) InFlight() int { return int(m.inflight.Load()) }

// Close tears the shared connection down; in-flight calls fail.
func (m *MuxConn) Close() error { return m.conn.Close() }

// RemoteAddr describes the peer for diagnostics.
func (m *MuxConn) RemoteAddr() string { return m.conn.RemoteAddr() }

// PendingReply is one in-flight multiplexed call's completion handle. The
// struct is pooled: Wait consumes it, and the caller must not touch the
// handle afterwards.
type PendingReply struct {
	m  *MuxConn
	id uint32
	ch chan muxResult
}

// pendingPool recycles the completion handles; one is allocated per
// successful Invoke and recycled when Wait consumes it.
var pendingPool = sync.Pool{
	New: func() any { return new(PendingReply) },
}

// Wait blocks until the reply arrives, the shared connection dies, or
// timeout fires (a nil channel never fires — no bound). On timeout the call
// is deregistered so the demux reader drops the late reply; the shared
// connection itself stays up for the other callers. Wait consumes the
// handle: it must be called exactly once.
func (p *PendingReply) Wait(timeout <-chan time.Time) (*wire.Message, error) {
	select {
	case r := <-p.ch:
		resultChPool.Put(p.ch)
		p.recycle()
		return r.reply, r.err
	case <-timeout:
		p.m.forget(p.id)
		// The reply may have been routed concurrently with the timeout;
		// prefer it over reporting a spurious deadline error.
		select {
		case r := <-p.ch:
			resultChPool.Put(p.ch)
			p.recycle()
			return r.reply, r.err
		default:
		}
		// The channel may still receive a late route: it is lost to the
		// pool, but the handle itself is safe to recycle.
		p.recycle()
		return nil, ErrMuxTimeout
	}
}

// recycle returns the handle to the pool.
func (p *PendingReply) recycle() {
	*p = PendingReply{}
	pendingPool.Put(p)
}

// timerPool recycles the per-call deadline timers fed to PendingReply.Wait.
// Every call with a deadline used to allocate a fresh time.Timer; under
// pipelining that is one allocation plus one runtime timer start per call.
var timerPool sync.Pool

// AcquireTimer returns a timer that fires after d, drawn from a pool.
// Release it with ReleaseTimer once the wait completes — never reuse or
// read its channel afterwards.
func AcquireTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// ReleaseTimer stops t and returns it to the pool. A timer that already
// fired has a value sitting in its channel; it must be drained here, or the
// next AcquireTimer caller would see a stale expiry the instant it waits —
// a "deadline exceeded" for a call that never ran out of time.
func ReleaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// MuxPool hands out the shared multiplexed connections, a small fixed set
// per endpoint (Width, the paper's connection cache shrunk to its logical
// minimum). Callers never check connections out: Get returns a live shared
// MuxConn, dialing lazily and replacing dead connections on the next call.
// The same per-endpoint circuit breaker as the exclusive pool gates dials
// and is fed per-call outcomes via Report.
type MuxPool struct {
	// Dial opens a new connection to an endpoint; typically a Transport's
	// Dial.
	Dial func(addr string) (Conn, error)
	// Width is the number of shared connections per endpoint; <= 0 means
	// one, which suffices until the single writer or reader saturates.
	Width int
	// Breaker, when set, gates Get per endpoint exactly as in Pool.
	Breaker *BreakerSet
	// Coalesce routes every shared connection's writes through a coalescing
	// writer (DESIGN.md §9).
	Coalesce bool
	// OnDraining, when set, is called once per connection whose peer sends a
	// GOAWAY frame, with the endpoint address. Set before the first Get; it
	// runs on the connection's demux goroutine.
	OnDraining func(addr string)
	// Keepalive, when positive, is the ping interval of a liveness prober
	// started on every shared connection whose peer can answer pings
	// (keepalive.go): idle connections are pinged, and a connection whose
	// probe goes unanswered for StuckIntervals intervals is evicted with
	// ErrConnStuck instead of wedging every multiplexed caller until their
	// deadlines.
	Keepalive time.Duration

	mu     sync.Mutex
	conns  map[string][]*MuxConn // fixed Width slots per endpoint
	rr     uint32                // round-robin cursor across Get calls
	closed bool

	dials, redials, late int
	pings, pongs, stuck  int64 // keepalive counters from replaced conns
}

// MuxPoolStats reports shared-connection activity.
type MuxPoolStats struct {
	// Dials counts every connection opened, Redials the subset that
	// replaced a dead shared connection.
	Dials, Redials int
	// Active counts currently live shared connections.
	Active int
	// InFlight counts calls currently awaiting replies across all shared
	// connections.
	InFlight int
	// Late counts replies that arrived after their caller's deadline.
	Late int
	// Pings and Pongs count keepalive probes sent and answers received
	// across all shared connections (live and replaced).
	Pings, Pongs int64
	// StuckEvicted counts connections the keepalive prober declared stuck
	// and tore down.
	StuckEvicted int64
}

// Get returns a live shared connection to addr, dialing on first use and
// redialing slots whose connection has died. Unlike Pool.Checkout, the
// returned MuxConn is shared — the caller must not close it.
func (p *MuxPool) Get(addr string) (*MuxConn, error) {
	if p.Dial == nil {
		return nil, fmt.Errorf("transport: mux pool has no dialer")
	}
	if err := p.Breaker.Allow(addr); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	width := p.Width
	if width <= 0 {
		width = 1
	}
	if p.conns == nil {
		p.conns = make(map[string][]*MuxConn)
	}
	slots := p.conns[addr]
	if len(slots) != width {
		slots = make([]*MuxConn, width)
		p.conns[addr] = slots
	}
	p.rr++
	slot := int(p.rr) % width
	// A connection is replaced as soon as its terminal error is set (or its
	// coalescing writer is poisoned) — which happens before any caller sees
	// its call fail — so a failed caller's immediate retry never gets
	// handed the same dying connection back.
	if mc := slots[slot]; mc != nil && mc.healthy() {
		return mc, nil
	}
	// First use, or the slot's connection died: dial a replacement under
	// the pool lock so concurrent callers of a dead slot produce one
	// redial, not a stampede.
	c, err := p.Dial(addr) //orbvet:ignore lockorder -- single-flight redial: holding p.mu is what collapses a thundering herd into one dial

	if err != nil {
		p.Breaker.Failure(addr)
		return nil, err
	}
	if old := slots[slot]; old != nil {
		p.redials++
		p.late += old.lateCount()
		p.pings += old.kaPings.Load()
		p.pongs += old.kaPongs.Load()
		if old.wasStuck() {
			p.stuck++
		}
	}
	p.dials++
	var onGoAway func()
	if cb := p.OnDraining; cb != nil {
		onGoAway = func() { cb(addr) }
	}
	// Coalescing is per-connection once negotiation is in play: a peer that
	// did not advertise the feature gets plain serialized writes on this
	// connection, whatever the static configuration says. Legacy peers (and
	// un-negotiated dials) keep the static setting.
	co := p.Coalesce
	if neg, ok := Negotiation(c); ok && !neg.Allows(wire.FeatureCoalesce) {
		co = false
	}
	mc := newMuxConn(c, co, onGoAway)
	// Keepalive is per-connection once negotiation is in play, like
	// coalescing above: a negotiated peer that did not advertise the
	// feature never sees a ping. Legacy and un-negotiated connections
	// follow the static configuration (both ends are assumed built alike,
	// the FeatureDeadline precedent).
	if p.Keepalive > 0 {
		if neg, ok := Negotiation(c); !ok || neg.Allows(wire.FeatureKeepalive) {
			mc.startKeepalive(p.Keepalive)
		}
	}
	slots[slot] = mc
	return mc, nil
}

// InFlight reports the number of calls awaiting replies across addr's
// shared connections — the selection hook replica balancing reads
// (balance.Endpoint.InFlight), mirroring Pool.InFlight on the exclusive
// path.
func (p *MuxPool) InFlight(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	// Dead/InFlight are lock-free atomics, safe to read under the pool
	// lock; the slot slice itself is only mutated under it.
	for _, mc := range p.conns[addr] {
		if mc != nil && !mc.Dead() {
			n += mc.InFlight()
		}
	}
	return n
}

// Report feeds one call outcome to the endpoint's circuit breaker,
// mirroring what Pool.Put does for exclusive checkouts.
func (p *MuxPool) Report(addr string, healthy bool) {
	if healthy {
		p.Breaker.Success(addr)
	} else {
		p.Breaker.Failure(addr)
	}
}

// lateCount reads a connection's dropped-late-reply counter.
func (m *MuxConn) lateCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.late
}

// Stats returns shared-connection counters.
func (p *MuxPool) Stats() MuxPoolStats {
	p.mu.Lock()
	st := MuxPoolStats{
		Dials: p.dials, Redials: p.redials, Late: p.late,
		Pings: p.pings, Pongs: p.pongs, StuckEvicted: p.stuck,
	}
	var all []*MuxConn
	for _, slots := range p.conns {
		for _, mc := range slots {
			if mc != nil {
				all = append(all, mc)
			}
		}
	}
	p.mu.Unlock()
	for _, mc := range all {
		if !mc.Dead() {
			st.Active++
			st.InFlight += mc.InFlight()
			st.Late += mc.lateCount()
		}
		st.Pings += mc.kaPings.Load()
		st.Pongs += mc.kaPongs.Load()
		if mc.wasStuck() {
			st.StuckEvicted++
		}
	}
	return st
}

// Close tears down every shared connection (failing their in-flight calls)
// and marks the pool closed.
func (p *MuxPool) Close() error {
	p.mu.Lock()
	p.closed = true
	var all []*MuxConn
	for _, slots := range p.conns {
		for _, mc := range slots {
			if mc != nil {
				all = append(all, mc)
			}
		}
	}
	p.conns = nil
	p.mu.Unlock()
	for _, mc := range all {
		mc.Close()
	}
	return nil
}
