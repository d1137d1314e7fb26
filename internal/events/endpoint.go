package events

import (
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// endpoint is the broker's write side toward one subscriber address space:
// a single connection fronted by a coalescing writer, shared by every
// subscriber at that address. Sharing is what turns N subscriber deliveries
// into one gathered write — each subscriber worker parks its frame in the
// same coalescer and the flusher emits the accumulated batch as one writev.
type endpoint struct {
	addr string
	conn transport.Conn
	co   *transport.Coalescer
	dead atomic.Bool
}

// dialWait is the singleflight slot for one in-flight dial: the dialing
// worker fills ep/err and closes done; every other worker wanting the same
// addr blocks on done instead of dialing (or, worse, mistaking the
// in-flight dial for a recent failure and failing fast — a publish fanning
// out to N subscribers on a fresh address lands N workers here at once).
type dialWait struct {
	done chan struct{}
	ep   *endpoint
	err  error
}

// endpoint returns the live endpoint for addr, dialing one if none exists.
// Concurrent requests for the same addr share a single dial. Redials after
// a failure (a failed dial or a died connection) are rate-limited by
// redialInterval; a delivery landing inside the backoff window fails
// fast (and counts as undelivered) instead of queuing dials to a peer that
// may be gone.
func (b *Broker) endpoint(addr string) (*endpoint, error) {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil, ErrClosed
		}
		if ep := b.eps[addr]; ep != nil && !ep.dead.Load() {
			b.mu.Unlock()
			return ep, nil
		}
		if w := b.dialing[addr]; w != nil {
			b.mu.Unlock()
			<-w.done
			if w.err != nil {
				return nil, w.err
			}
			if !w.ep.dead.Load() {
				return w.ep, nil
			}
			continue // endpoint died under the waiters; re-evaluate
		}
		now := time.Now().UnixNano()
		if last, ok := b.lastFail[addr]; ok && now-last < int64(redialInterval) {
			b.mu.Unlock()
			return nil, errDialBackoff
		}
		w := &dialWait{done: make(chan struct{})}
		b.dialing[addr] = w
		b.mu.Unlock()

		w.ep, w.err = b.dialEndpoint(addr)
		b.mu.Lock()
		delete(b.dialing, addr)
		if w.err != nil && w.err != ErrClosed {
			b.lastFail[addr] = time.Now().UnixNano()
		}
		b.mu.Unlock()
		close(w.done)
		return w.ep, w.err
	}
}

// dialEndpoint opens one connection to addr, registers the endpoint and
// starts its drain. Called only by the worker holding the addr's dialing
// slot.
func (b *Broker) dialEndpoint(addr string) (*endpoint, error) {
	conn, err := b.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{addr: addr, conn: conn}
	ep.co = transport.NewCoalescer(conn)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ep.co.Close()
		conn.Close()
		return nil, ErrClosed
	}
	b.eps[addr] = ep
	// A successful dial resets the backoff clock for the NEXT failure.
	delete(b.lastFail, addr)
	b.mu.Unlock()
	b.wg.Add(1)
	go b.drainEndpoint(ep)
	return ep, nil
}

// drainEndpoint is the endpoint's read side: event deliveries are oneway so
// nothing meaningful comes back, but the peer may send frames (a GOAWAY on
// shutdown, protocol errors) and an unread socket would eventually stall
// TCP. Draining also notices a killed connection promptly: the read error
// poisons the endpoint so the next delivery redials instead of piling onto
// a dead coalescer.
func (b *Broker) drainEndpoint(ep *endpoint) {
	defer b.wg.Done()
	for {
		m, err := ep.conn.Recv()
		if err != nil {
			b.failEndpoint(ep)
			return
		}
		wire.FreeMessage(m)
	}
}

// failEndpoint tears one endpoint down exactly once: the coalescer fails
// its queued frames (unblocking any worker mid-send), the connection
// closes (unblocking the drain), the slot empties, and the backoff clock
// starts so the next delivery inside the window fails fast instead of
// redialing a peer that just died.
func (b *Broker) failEndpoint(ep *endpoint) {
	if ep.dead.Swap(true) {
		return
	}
	ep.co.Close()
	ep.conn.Close()
	b.mu.Lock()
	if b.eps[ep.addr] == ep {
		delete(b.eps, ep.addr)
		b.lastFail[ep.addr] = time.Now().UnixNano()
	}
	b.mu.Unlock()
}
