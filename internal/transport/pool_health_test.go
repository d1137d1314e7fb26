package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeConn is an inert Conn for pool bookkeeping tests; it records Close so
// eviction can be asserted.
type fakeConn struct {
	id     int
	mu     sync.Mutex
	closed bool
}

func (c *fakeConn) Send(*wire.Message) error     { return nil }
func (c *fakeConn) Recv() (*wire.Message, error) { return nil, wire.ErrClosed }
func (c *fakeConn) SetDeadline(time.Time) error  { return nil }
func (c *fakeConn) RemoteAddr() string           { return fmt.Sprintf("fake-%d", c.id) }
func (c *fakeConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
func (c *fakeConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// fakePool builds a pool whose dialer mints fakeConns and whose clock is
// manual.
func fakePool() (*Pool, *fakeClock, *[]*fakeConn) {
	clk := newFakeClock()
	dialed := &[]*fakeConn{}
	var mu sync.Mutex
	p := &Pool{
		Dial: func(addr string) (Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			c := &fakeConn{id: len(*dialed)}
			*dialed = append(*dialed, c)
			return c, nil
		},
	}
	p.now = clk.Now
	return p, clk, dialed
}

// unwrap strips the pooledConn lifetime wrapper for identity checks.
func unwrap(c Conn) Conn {
	if pc, ok := c.(*pooledConn); ok {
		return pc.Conn
	}
	return c
}

func TestPoolIdleTTLEviction(t *testing.T) {
	p, clk, dialed := fakePool()
	p.IdleTTL = time.Minute
	const addr = "ep"

	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(addr, c, true)

	// Within the TTL the cached connection is reused.
	clk.Advance(30 * time.Second)
	c2, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if unwrap(c2) != unwrap(c) {
		t.Fatal("fresh idle connection not reused")
	}
	p.Put(addr, c2, true)

	// Past the TTL it is evicted, closed, and a new one dialed.
	clk.Advance(2 * time.Minute)
	c3, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if unwrap(c3) == unwrap(c) {
		t.Fatal("expired idle connection handed out")
	}
	if !(*dialed)[0].isClosed() {
		t.Error("evicted idle connection not closed")
	}
	st := p.Stats()
	if st.Expired != 1 || st.Dials != 2 {
		t.Errorf("stats = %+v, want 1 expired, 2 dials", st)
	}
	p.Put(addr, c3, true)
	p.Close()
}

func TestPoolMaxLifetimeEviction(t *testing.T) {
	p, clk, dialed := fakePool()
	p.MaxLifetime = time.Hour
	const addr = "ep"

	c, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Returned past its lifetime: closed instead of cached.
	clk.Advance(2 * time.Hour)
	p.Put(addr, c, true)
	if !(*dialed)[0].isClosed() {
		t.Error("over-lifetime connection re-cached instead of closed")
	}
	if st := p.Stats(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}

	// A cached connection that ages out while idle is evicted at checkout.
	c2, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(addr, c2, true)
	clk.Advance(2 * time.Hour)
	c3, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if unwrap(c3) == unwrap(c2) {
		t.Fatal("aged-out idle connection handed out")
	}
	if !(*dialed)[1].isClosed() {
		t.Error("aged-out idle connection not closed")
	}
	p.Put(addr, c3, true)
	p.Close()
}

// TestPoolHealthCheckOnCheckout: a long-idle cached connection is probed at
// checkout; one that flunks is skipped, closed, and the older one handed out
// instead — and when every cached connection flunks, checkout dials.
func TestPoolHealthCheckOnCheckout(t *testing.T) {
	p, clk, dialed := fakePool()
	bad := map[Conn]bool{}
	var mu sync.Mutex
	p.ProbeIdle = time.Second
	p.Probe = func(c Conn) error {
		mu.Lock()
		defer mu.Unlock()
		if bad[unwrap(c)] {
			return errors.New("dead")
		}
		return nil
	}
	const addr = "ep"

	// Cache two connections and let them go long-idle.
	c1, _ := p.Get(addr)
	c2, _ := p.Get(addr)
	p.Put(addr, c1, true)
	p.Put(addr, c2, true)
	clk.Advance(2 * time.Second)

	// Poison the most recently returned (checked out first, LIFO): the
	// checkout must skip it, close it, and hand out the older one.
	mu.Lock()
	bad[unwrap(c2)] = true
	mu.Unlock()
	got, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if unwrap(got) != unwrap(c1) {
		t.Fatal("probe did not fall through to the healthy connection")
	}
	if !(*dialed)[1].isClosed() {
		t.Error("unhealthy connection not closed")
	}
	p.Put(addr, got, true)
	clk.Advance(2 * time.Second)

	// Poison everything: checkout falls through to a fresh dial.
	mu.Lock()
	bad[unwrap(c1)] = true
	mu.Unlock()
	got2, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if unwrap(got2) == unwrap(c1) || unwrap(got2) == unwrap(c2) {
		t.Fatal("poisoned connection handed out again")
	}
	if st := p.Stats(); st.Dials != 3 || st.Probes != 3 || st.ProbeEvicted != 2 {
		t.Errorf("stats = %+v, want 3 dials, 3 probes, 2 evicted", st)
	}
	p.Put(addr, got2, true)
	p.Close()
}

func TestPoolUnhealthyPutNeverReused(t *testing.T) {
	p, _, dialed := fakePool()
	const addr = "ep"
	c, _ := p.Get(addr)
	p.Put(addr, c, false)
	if !(*dialed)[0].isClosed() {
		t.Error("unhealthy return not closed")
	}
	c2, _ := p.Get(addr)
	if unwrap(c2) == unwrap(c) {
		t.Fatal("unhealthy connection handed out again")
	}
	p.Put(addr, c2, true)
	p.Close()
}

func TestPoolClosedSentinel(t *testing.T) {
	p, _, _ := fakePool()
	p.Close()
	_, err := p.Get("ep")
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get on closed pool = %v, want ErrPoolClosed", err)
	}
	// Put after Close closes the connection rather than caching it.
	c := &fakeConn{}
	p.Put("ep", c, true)
	if !c.isClosed() {
		t.Error("Put after Close cached the connection")
	}
}

func TestPoolBreakerIntegration(t *testing.T) {
	dialErr := errors.New("connection refused")
	var dials int
	p := &Pool{Dial: func(addr string) (Conn, error) {
		dials++
		return nil, dialErr
	}}
	p.Breaker = NewBreakerSet(BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	const addr = "dead"

	for i := 0; i < 2; i++ {
		if _, err := p.Get(addr); !errors.Is(err, dialErr) {
			t.Fatalf("Get #%d = %v, want dial error", i, err)
		}
	}
	// Tripped: fails fast without dialing.
	if _, err := p.Get(addr); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Get after trip = %v, want ErrCircuitOpen", err)
	}
	if dials != 2 {
		t.Errorf("dials = %d, want 2 (breaker must prevent the third)", dials)
	}
	st := p.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	if st.Breakers[addr] != BreakerOpen {
		t.Errorf("breaker state in stats = %v, want open", st.Breakers[addr])
	}
	p.Close()
}

// TestPoolBreakerRecovery: a successful Put closes the breaker again after
// a half-open probe.
func TestPoolBreakerRecovery(t *testing.T) {
	clk := newFakeClock()
	var fail bool
	p := &Pool{Dial: func(addr string) (Conn, error) {
		if fail {
			return nil, errors.New("down")
		}
		return &fakeConn{}, nil
	}}
	p.now = clk.Now
	bs := NewBreakerSet(BreakerPolicy{Threshold: 1, Cooldown: time.Second})
	bs.now = clk.Now
	p.Breaker = bs
	const addr = "flappy"

	fail = true
	if _, err := p.Get(addr); err == nil {
		t.Fatal("dial to downed endpoint succeeded")
	}
	if _, err := p.Get(addr); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Get while open = %v", err)
	}

	// Endpoint recovers; probe succeeds; breaker closes.
	fail = false
	clk.Advance(2 * time.Second)
	c, err := p.Get(addr)
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	p.Put(addr, c, true)
	if st := bs.State(addr); st != BreakerClosed {
		t.Errorf("state after successful probe = %v, want closed", st)
	}
	p.Close()
}
