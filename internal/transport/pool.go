package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Pool is the HeidiRMI connection cache (§3.1): connections to an endpoint
// are checked out exclusively for the duration of one call and returned for
// reuse; only when no idle connection is available is a new one dialed.
// Set Disabled to ablate caching (benchmark C3).
//
// Beyond the paper's cache, the pool carries the fault-tolerance policy of
// the invocation layer: an optional per-endpoint circuit breaker consulted
// on checkout, idle-TTL and max-lifetime eviction so stale cached
// connections are not handed to callers, and an optional liveness probe on
// checkout. At most DefaultMaxIdlePerHost idle connections are cached per
// endpoint; excess returned connections are closed.
type Pool struct {
	// Dial opens a new connection to an endpoint; typically a
	// Transport's Dial.
	Dial func(addr string) (Conn, error)

	// Disabled turns caching off: Get always dials and Put always
	// closes.
	Disabled bool

	// IdleTTL evicts idle connections that have sat unused for longer
	// than this; zero means idle connections never expire (the HeidiRMI
	// default, where cached connections may legitimately sit for hours).
	IdleTTL time.Duration

	// MaxLifetime closes connections older than this instead of
	// re-caching them (defense against servers that rotate or leak
	// per-connection state); zero means unlimited.
	MaxLifetime time.Duration

	// ProbeIdle, with Probe set, bounds how long a cached connection may
	// sit idle before checkout runs the (potentially round-trip-priced)
	// Probe on it. Connections idle for less are handed out unprobed —
	// the common case, kept at zero extra cost. Zero disables probing.
	ProbeIdle time.Duration
	// Probe actively checks a long-idle cached connection at checkout,
	// typically PingProbe (keepalive.go). It may cost a network
	// round-trip, so it runs only on connections idle past ProbeIdle. A
	// non-nil error discards the connection and falls through to the next
	// idle connection (or a fresh dial). Fresh dials are not probed.
	Probe func(Conn) error

	// Breaker, when set, gates checkouts per endpoint: Get fails fast
	// with ErrCircuitOpen while an endpoint's breaker is open, and
	// Get/Put outcomes feed the breaker's failure/success counts.
	Breaker *BreakerSet

	now func() time.Time // test clock; nil means time.Now

	mu     sync.Mutex
	idle   map[string][]idleConn
	closed bool

	// outstanding counts checked-out connections per endpoint — the
	// exclusive path's in-flight load, fed to balance.LeastInFlight via
	// InFlight.
	outstanding map[string]int

	// Stats counters (read with Stats).
	hits, misses, dials, expired, rejected int
	probes, probeEvicted                   int
}

// idleConn is one cached connection plus the time it was returned.
type idleConn struct {
	c     Conn
	since time.Time
}

// pooledConn tags a dialed connection with its creation time so
// MaxLifetime can be enforced when it is returned. It is only used when
// MaxLifetime is configured, so pools without a lifetime bound hand back
// the dialer's connection unchanged.
type pooledConn struct {
	Conn
	created time.Time
}

// DefaultMaxIdlePerHost is the per-endpoint idle cap.
const DefaultMaxIdlePerHost = 8

// ErrPoolClosed is returned by Get after Close; the ORB maps it onto its
// shutdown semantics.
var ErrPoolClosed = errors.New("transport: pool closed")

// PoolStats reports cache effectiveness and fault-policy activity.
type PoolStats struct {
	Hits, Misses, Dials int
	// Expired counts connections evicted by IdleTTL or MaxLifetime.
	Expired int
	// Rejected counts checkouts denied by an open circuit breaker.
	Rejected int
	// Probes counts idle connections actively probed at checkout
	// (ProbeIdle/Probe); ProbeEvicted the subset that flunked and were
	// discarded.
	Probes, ProbeEvicted int
	// Breakers snapshots the per-endpoint breaker states (nil when no
	// breaker is configured or no endpoint has ever failed).
	Breakers map[string]BreakerState
}

// NewPool builds a pool dialing with the given transport.
func NewPool(t Transport) *Pool {
	return &Pool{Dial: t.Dial}
}

func (p *Pool) timeNow() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// Get checks out a connection to addr, reusing an idle cached connection
// when one exists.
func (p *Pool) Get(addr string) (Conn, error) {
	c, _, err := p.Checkout(addr)
	return c, err
}

// Checkout is Get plus a report of whether the connection was reused from
// the cache — the signal the retry layer needs to treat an EOF on first
// read as a stale cached connection rather than an ambiguous failure.
func (p *Pool) Checkout(addr string) (Conn, bool, error) {
	if p.Dial == nil {
		return nil, false, fmt.Errorf("transport: pool has no dialer")
	}
	if err := p.Breaker.Allow(addr); err != nil {
		p.mu.Lock()
		p.rejected++
		p.mu.Unlock()
		return nil, false, err
	}
	if !p.Disabled {
		for {
			c, err, done := p.checkoutIdle(addr)
			if done {
				if err != nil {
					return nil, false, err
				}
				if c == nil {
					break // cache miss: dial below
				}
				p.track(addr, 1)
				return c, true, nil
			}
		}
	}
	p.mu.Lock()
	p.dials++
	p.mu.Unlock()
	c, err := p.Dial(addr)
	if err != nil {
		p.Breaker.Failure(addr)
		return nil, false, err
	}
	if p.MaxLifetime > 0 {
		c = &pooledConn{Conn: c, created: p.timeNow()}
	}
	p.track(addr, 1)
	return c, false, nil
}

// track adjusts addr's checked-out connection count.
func (p *Pool) track(addr string, delta int) {
	p.mu.Lock()
	if p.outstanding == nil {
		p.outstanding = make(map[string]int)
	}
	n := p.outstanding[addr] + delta
	if n <= 0 {
		delete(p.outstanding, addr)
	} else {
		p.outstanding[addr] = n
	}
	p.mu.Unlock()
}

// InFlight reports how many connections to addr are currently checked out —
// on the exclusive path, one per in-flight call. It is the selection hook
// replica balancing reads (balance.Endpoint.InFlight).
func (p *Pool) InFlight(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding[addr]
}

// checkoutIdle attempts one cached-connection checkout. done=false means a
// candidate failed its liveness probe and the caller should try again;
// done=true with a nil Conn and nil error means the cache is empty (miss).
func (p *Pool) checkoutIdle(addr string) (Conn, error, bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed, true
	}
	now := p.timeNow()
	list := p.idle[addr]
	// Evict expired idle connections wholesale: the list is short
	// (DefaultMaxIdlePerHost) and eviction must not depend on checkout order.
	var evict []Conn
	if p.IdleTTL > 0 || p.MaxLifetime > 0 {
		live := list[:0]
		for _, ic := range list {
			if p.expiredLocked(ic, now) {
				evict = append(evict, ic.c)
				p.expired++
				continue
			}
			live = append(live, ic)
		}
		list = live
	}
	var c Conn
	var idleFor time.Duration
	if n := len(list); n > 0 {
		c = list[n-1].c
		idleFor = now.Sub(list[n-1].since)
		list = list[:n-1]
		p.hits++
	} else {
		p.misses++
	}
	if p.idle != nil {
		p.idle[addr] = list
	}
	p.mu.Unlock()
	for _, ec := range evict {
		ec.Close()
	}
	if c == nil {
		return nil, nil, true
	}
	if p.Probe != nil && p.ProbeIdle > 0 && idleFor >= p.ProbeIdle {
		// Long-idle connection: anything may have happened to it while it
		// sat (peer restart, NAT flow expiry, silent path failure), so pay
		// one active round-trip before betting a call on it. The probe
		// runs outside the pool lock — it blocks on the network.
		p.mu.Lock()
		p.probes++
		p.mu.Unlock()
		if err := p.Probe(c); err != nil {
			c.Close()
			// The hit was provisional; try the next candidate.
			p.mu.Lock()
			p.hits--
			p.probeEvicted++
			p.mu.Unlock()
			return nil, nil, false
		}
	}
	return c, nil, true
}

// expiredLocked reports whether an idle connection is past its idle TTL or
// total lifetime.
func (p *Pool) expiredLocked(ic idleConn, now time.Time) bool {
	if p.IdleTTL > 0 && now.Sub(ic.since) >= p.IdleTTL {
		return true
	}
	if p.MaxLifetime > 0 {
		if pc, ok := ic.c.(*pooledConn); ok && now.Sub(pc.created) >= p.MaxLifetime {
			return true
		}
	}
	return false
}

// Put returns a healthy connection to the cache. Pass healthy=false after
// an I/O error so the connection is discarded rather than reused. Outcomes
// feed the circuit breaker when one is configured.
func (p *Pool) Put(addr string, c Conn, healthy bool) {
	if c == nil {
		return
	}
	p.track(addr, -1)
	if healthy {
		p.Breaker.Success(addr)
	} else {
		p.Breaker.Failure(addr)
	}
	if p.Disabled || !healthy {
		c.Close()
		return
	}
	now := p.timeNow()
	if p.MaxLifetime > 0 {
		if pc, ok := c.(*pooledConn); ok && now.Sub(pc.created) >= p.MaxLifetime {
			p.mu.Lock()
			p.expired++
			p.mu.Unlock()
			c.Close()
			return
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle[addr]) >= DefaultMaxIdlePerHost {
		c.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]idleConn)
	}
	p.idle[addr] = append(p.idle[addr], idleConn{c: c, since: now})
}

// Stats returns cache counters and breaker states.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Hits: p.hits, Misses: p.misses, Dials: p.dials,
		Expired: p.expired, Rejected: p.rejected,
		Probes: p.probes, ProbeEvicted: p.probeEvicted,
	}
	p.mu.Unlock()
	if p.Breaker.enabled() {
		st.Breakers = p.Breaker.States()
	}
	return st
}

// Close closes every idle connection and marks the pool closed.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, list := range p.idle {
		for _, ic := range list {
			ic.c.Close()
		}
	}
	p.idle = nil
	return nil
}
