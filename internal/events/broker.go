package events

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/wire"
)

// counters is one accounting ledger (per subscriber, plus a broker-wide
// aggregate updated in lockstep).
type counters struct {
	enqueued    atomic.Uint64
	delivered   atomic.Uint64
	dropped     atomic.Uint64
	coalesced   atomic.Uint64
	undelivered atomic.Uint64
	discarded   atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Enqueued:    c.enqueued.Load(),
		Delivered:   c.delivered.Load(),
		Dropped:     c.dropped.Load(),
		Coalesced:   c.coalesced.Load(),
		Undelivered: c.undelivered.Load(),
		Discarded:   c.discarded.Load(),
	}
}

// subscriber is one consumer's registration: its queue, its delivery route
// (local callback or remote address), and its ledger.
type subscriber struct {
	id      uint64
	ref     string // stringified object reference events are addressed to
	addr    string // "" for collocated subscribers
	deliver Deliver
	q       *subQueue
	c       counters
}

// SubOptions tunes one subscription; zero fields inherit the broker's
// Config defaults (Policy's zero value IS DropOldest, the default).
type SubOptions struct {
	QueueDepth int
	Policy     DropPolicy
}

// Broker fans events out to subscribers. One broker backs one channel.
type Broker struct {
	cfg Config

	mu       sync.Mutex
	subs     map[uint64]*subscriber
	eps      map[string]*endpoint
	dialing  map[string]*dialWait // singleflight slot per addr being dialed
	lastFail map[string]int64     // unix nanos of the last dial failure / conn death per addr
	nextID   uint64
	closed   bool

	// snapshot is the publish path's lock-free view of the subscriber set,
	// rebuilt copy-on-write by subscribe/unsubscribe.
	snapshot atomic.Pointer[[]*subscriber]

	nextReq   atomic.Uint32
	published atomic.Uint64
	agg       counters

	wg sync.WaitGroup // delivery workers and endpoint drains
}

// NewBroker creates an empty broker.
func NewBroker(cfg Config) *Broker {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	b := &Broker{
		cfg:      cfg,
		subs:     make(map[uint64]*subscriber),
		eps:      make(map[string]*endpoint),
		dialing:  make(map[string]*dialWait),
		lastFail: make(map[string]int64),
	}
	empty := []*subscriber{}
	b.snapshot.Store(&empty)
	return b
}

// SubscribeLocal registers a collocated consumer: events are handed to d on
// the subscriber's delivery worker, no connection involved.
func (b *Broker) SubscribeLocal(ref string, d Deliver, o SubOptions) (uint64, error) {
	if d == nil {
		return 0, fmt.Errorf("events: local subscriber %q has no deliver callback", ref)
	}
	return b.addSubscriber(&subscriber{ref: ref, deliver: d}, o)
}

// SubscribeRemote registers a consumer in another address space: events are
// framed as oneway requests to ref and sent over the (shared, coalesced)
// connection to addr.
func (b *Broker) SubscribeRemote(ref, addr string, o SubOptions) (uint64, error) {
	if addr == "" {
		return 0, fmt.Errorf("events: remote subscriber %q has no address", ref)
	}
	if b.cfg.Dial == nil {
		return 0, fmt.Errorf("events: broker has no Dial; cannot reach subscriber at %q", addr)
	}
	return b.addSubscriber(&subscriber{ref: ref, addr: addr}, o)
}

func (b *Broker) addSubscriber(s *subscriber, o SubOptions) (uint64, error) {
	if o.QueueDepth <= 0 {
		o.QueueDepth = b.cfg.QueueDepth
	}
	s.q = newSubQueue(o.QueueDepth, o.Policy)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	b.nextID++
	s.id = b.nextID
	b.subs[s.id] = s
	b.rebuildSnapshotLocked()
	b.mu.Unlock()
	b.wg.Add(1)
	go b.worker(s)
	return s.id, nil
}

// Unsubscribe removes a subscription, discarding whatever it still has
// queued. It reports whether the id was live.
func (b *Broker) Unsubscribe(id uint64) bool {
	b.mu.Lock()
	s, ok := b.subs[id]
	if ok {
		delete(b.subs, id)
		b.rebuildSnapshotLocked()
	}
	b.mu.Unlock()
	if !ok {
		return false
	}
	b.discard(s, s.q.close())
	return true
}

// rebuildSnapshotLocked re-derives the publish path's subscriber slice.
// Callers hold b.mu.
func (b *Broker) rebuildSnapshotLocked() {
	subs := make([]*subscriber, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.snapshot.Store(&subs)
}

// discard accounts and frees events that will never be delivered.
func (b *Broker) discard(s *subscriber, ms []*wire.Message) {
	for _, m := range ms {
		s.c.discarded.Add(1)
		b.agg.discarded.Add(1)
		wire.FreeMessage(m)
	}
}

// Publish fans one event out to every current subscriber and returns the
// number of queues it was admitted to. The body is encoded exactly once:
// src is leased on demand (no copy when it came off the wire) and every
// per-subscriber message retain-shares that lease, so the publisher's cost
// is one pooled struct and one enqueue per subscriber — it never blocks on
// a slow consumer, a full queue, or a dead connection. src remains the
// caller's to free.
func (b *Broker) Publish(method string, src *wire.Message) int {
	b.published.Add(1)
	subs := *b.snapshot.Load()
	if len(subs) == 0 {
		return 0
	}
	src.EnsureLeased()
	n := 0
	for _, s := range subs {
		dm := wire.NewMessage()
		dm.Type = wire.MsgRequest
		dm.RequestID = b.nextReq.Add(1)
		dm.TargetRef = s.ref
		dm.Method = method
		dm.Oneway = true
		src.ShareBodyInto(dm)
		displaced, how := s.q.enqueue(dm)
		switch how {
		case enqClosed:
			wire.FreeMessage(dm)
			continue
		case enqCoalesced:
			s.c.coalesced.Add(1)
			b.agg.coalesced.Add(1)
			wire.FreeMessage(displaced)
		case enqDropped:
			s.c.dropped.Add(1)
			b.agg.dropped.Add(1)
			wire.FreeMessage(displaced)
		}
		s.c.enqueued.Add(1)
		b.agg.enqueued.Add(1)
		n++
	}
	return n
}

// worker is one subscriber's delivery loop: it drains the queue in order,
// delivering locally or over the shared endpoint, and frees each message
// once its fate is recorded.
func (b *Broker) worker(s *subscriber) {
	defer b.wg.Done()
	for {
		m := s.q.pop()
		if m == nil {
			return
		}
		var err error
		if s.addr == "" {
			err = s.deliver(m)
		} else {
			err = b.sendRemote(s, m)
		}
		if err != nil {
			s.c.undelivered.Add(1)
			b.agg.undelivered.Add(1)
		} else {
			s.c.delivered.Add(1)
			b.agg.delivered.Add(1)
		}
		wire.FreeMessage(m)
	}
}

// sendRemote routes one event through the subscriber's shared endpoint.
// SendBatched (never Send) is the point of the design: each subscriber's
// worker parks its frame in the coalescer's queue, so the workers fanning
// one publish out to N subscribers on one connection are gathered into one
// writev instead of N sequential sends.
func (b *Broker) sendRemote(s *subscriber, m *wire.Message) error {
	for attempt := 0; ; attempt++ {
		ep, err := b.endpoint(s.addr)
		if err != nil {
			return err
		}
		err = ep.co.SendBatched(m)
		if err == nil {
			return nil
		}
		b.failEndpoint(ep)
		if attempt == 0 && errors.Is(err, transport.ErrNotSent) {
			// The frame never reached the wire (the coalescer was already
			// poisoned when we enqueued), so one retry on a fresh
			// connection is safe and keeps a single failure from marking
			// a whole batch of queued events undelivered.
			continue
		}
		return err
	}
}

// Stats returns the broker-wide ledger.
func (b *Broker) Stats() Stats {
	st := b.agg.snapshot()
	st.Published = b.published.Load()
	return st
}

// SubscriberStats returns one subscription's ledger (Published is zero:
// publishes are broker-wide). It reports false after the id is removed.
func (b *Broker) SubscriberStats(id uint64) (Stats, bool) {
	b.mu.Lock()
	s, ok := b.subs[id]
	b.mu.Unlock()
	if !ok {
		return Stats{}, false
	}
	return s.c.snapshot(), true
}

// Subscribers returns the live subscription count.
func (b *Broker) Subscribers() int {
	return len(*b.snapshot.Load())
}

// Close shuts the broker down: pending events are discarded (and counted),
// delivery workers and endpoint connections are torn down, and Close blocks
// until every worker has exited. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*subscriber, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[uint64]*subscriber)
	eps := make([]*endpoint, 0, len(b.eps))
	for _, ep := range b.eps {
		eps = append(eps, ep)
	}
	b.eps = make(map[string]*endpoint)
	empty := []*subscriber{}
	b.snapshot.Store(&empty)
	b.mu.Unlock()
	for _, s := range subs {
		b.discard(s, s.q.close())
	}
	for _, ep := range eps {
		b.failEndpoint(ep)
	}
	b.wg.Wait()
}
