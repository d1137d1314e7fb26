package orb

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balance"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options configures an ORB. The zero value serves a text-protocol TCP ORB
// on an ephemeral loopback port — the paper's default HeidiRMI setup.
type Options struct {
	// Protocol frames messages and encodes call bodies. Defaults to
	// wire.Text (the HeidiRMI ASCII protocol); use wire.CDR for the
	// binary protocol.
	Protocol wire.Protocol
	// Transport carries messages. Defaults to transport.NewTCP(Protocol).
	Transport transport.Transport
	// ListenAddr is the bootstrap endpoint. Defaults to "127.0.0.1:0".
	ListenAddr string
	// DispatchStrategy selects skeleton method lookup (benchmark C1).
	DispatchStrategy Strategy
	// CallTimeout bounds one remote invocation's wire round trip (send
	// plus reply wait). Zero means no bound — the HeidiRMI default,
	// where idle cached connections may legitimately sit for hours.
	CallTimeout time.Duration
	// DisableConnCache ablates the §3.1 connection cache (benchmark C3).
	DisableConnCache bool
	// DisableStubCache ablates the §3.1 stub cache (benchmark C3).
	DisableStubCache bool

	// Retry configures client-side retries of remote invocations; the
	// zero value disables them and leaves invocation semantics exactly
	// as before.
	Retry RetryPolicy
	// Breaker enables a per-endpoint circuit breaker on the client
	// connection pool (Threshold > 0); a tripped endpoint fails fast
	// with ErrCircuitOpen instead of dialing.
	Breaker transport.BreakerPolicy
	// OnBreakerChange observes circuit-breaker transitions — the
	// interceptor-style hook that makes breaker trips visible to
	// monitoring without polling PoolStats.
	OnBreakerChange func(addr string, from, to transport.BreakerState)
	// ConnIdleTTL evicts pooled connections idle longer than this; zero
	// keeps them forever (the paper's behavior).
	ConnIdleTTL time.Duration
	// ConnMaxLifetime retires pooled connections older than this; zero
	// means unlimited.
	ConnMaxLifetime time.Duration

	// Multiplex enables the shared-connection invocation path: instead of
	// checking out an exclusive pooled connection per in-flight call
	// (§3.1's literal model), concurrent calls to one endpoint interleave
	// request/reply frames over a small fixed set of shared connections,
	// demultiplexed by RequestID. Per-call deadlines (CallTimeout) are
	// enforced by timers rather than connection deadlines, and the retry
	// and breaker policies compose unchanged: a dying shared connection
	// fails its in-flight calls ambiguously and the next call redials.
	// The zero value keeps the exclusive checkout path byte-for-byte.
	Multiplex bool
	// MuxConnsPerEndpoint is the number of shared connections per endpoint
	// when Multiplex is on; <= 0 means one, which suffices until the
	// single writer or demux reader saturates.
	MuxConnsPerEndpoint int
	// MaxConcurrentPerConn bounds concurrent server-side dispatches per
	// connection. The zero value preserves the serial behavior (one
	// request at a time per connection); pipelined clients need a value
	// > 1 for later requests to overtake a slow call ahead of them.
	// Interleaved replies are safe on any client: the exclusive path has
	// at most one request outstanding per connection, and the mux path
	// pairs replies by RequestID.
	MaxConcurrentPerConn int

	// CoalesceWrites batches concurrent frames into gathered writes
	// (writev) on shared connections: the client's multiplexed send path
	// (requires Multiplex) and the server's reply path when
	// MaxConcurrentPerConn > 1. Single in-flight callers take a direct
	// write, so the latency cost when there is nothing to batch is
	// marginal. A gathered write carries at most 64 frames and 256 KiB;
	// see DESIGN.md §9 for when not to enable it.
	CoalesceWrites bool

	// Admission bounds concurrent server-side dispatch and sheds the
	// excess with StatusOverloaded (see admission.go). The zero value
	// admits everything — the seed behavior.
	Admission AdmissionPolicy
	// DrainTimeout bounds Shutdown's graceful drain: after the GOAWAY
	// broadcast, in-flight dispatches get this long to finish and reply
	// before connections are torn down. Zero waits indefinitely (the seed
	// behavior).
	DrainTimeout time.Duration
	// Rebind, when set, re-resolves object references whose endpoint has
	// announced it is draining (GOAWAY): the next invocation routes to the
	// reference Rebind returns — typically a fresh naming-service lookup
	// (naming.Directory.Rebind) — and the result is memoized. Nil leaves
	// references pinned to their original endpoint.
	Rebind RebindFunc
	// Balance selects which member of a replica set (RegisterReplicaSet)
	// each invocation attempt targets: balance.RoundRobin (the default),
	// balance.LeastInFlight, or balance.ConsistentHash. It has no effect on
	// calls whose target is not a registered replica member.
	Balance balance.Policy

	// Collocation selects how invocations whose target is exported by this
	// same ORB are carried. The zero value (CollocateWire) routes them over
	// the loopback wire like any remote call — the seed behavior.
	// CollocateFast dispatches them directly on the caller's goroutine,
	// skipping transport and framing while preserving call semantics; see
	// collocate.go and DESIGN.md §12.
	Collocation CollocationMode
	// Negotiate makes this ORB's client side open every fresh connection
	// with a wire.MsgHello feature handshake (DESIGN §12): the two ends
	// agree on a feature set once at dial time, and per-connection terms
	// replace lockstep static configuration for coalescing and deadline
	// headers. Peers that do not speak hello are detected and redialed
	// plain (static configuration applies, exactly as before), so mixed
	// fleets interoperate. The server side always answers hellos,
	// regardless of this knob. Off by default. The offer (as dialer and as
	// answerer) is everything this build implements: coalescing, deadline
	// headers, keepalive.
	Negotiate bool

	// KeepaliveInterval enables the liveness layer (DESIGN §15): shared
	// multiplexed connections that carry no inbound frame for this long are
	// pinged (wire.MsgPing), and — with Multiplex off — cached exclusive
	// connections idle past this bound are ping-probed at checkout before
	// being handed to a caller. A connection that answers nothing is torn
	// down (transport.ErrConnStuck) instead of wedging callers until their
	// deadlines. A ping unanswered for three intervals (with nothing else
	// inbound either) declares the connection stuck. Pings ride only
	// connections whose peer negotiated wire.FeatureKeepalive (or that
	// never negotiated, where static configuration — both ends built
	// alike — applies). Zero disables the layer; the seed behavior.
	KeepaliveInterval time.Duration

	// Hedge enables speculative duplicate requests for slow idempotent
	// two-way calls (hedge.go): an attempt with no reply after Hedge.Delay
	// is reissued — re-routed, so replica groups hedge onto a different
	// member — and the first reply wins. Only calls declared idempotent
	// (SetIdempotent or Retry.Idempotent) are hedged; the zero value
	// disables hedging.
	Hedge HedgePolicy
}

// CollocationMode selects the carrier for same-address-space invocations.
type CollocationMode int

const (
	// CollocateWire sends collocated calls over the loopback transport like
	// any remote call — the seed behavior, and the safest choice when
	// servants depend on full request isolation.
	CollocateWire CollocationMode = iota
	// CollocateFast dispatches collocated calls directly on the caller's
	// goroutine: no connection, no framing, no reader/worker handoff. The
	// call body still round-trips through the codec, so incopy parameters
	// are deep-copied exactly as a remote servant would see them, and
	// admission, deadlines, interceptors and stats all still apply.
	CollocateFast
)

// RebindFunc re-resolves a reference whose endpoint is draining. Returning
// the input reference (or an error) keeps the original endpoint; the hook is
// then consulted again on the next invocation.
type RebindFunc func(ref ObjectRef) (ObjectRef, error)

// StubFactory builds a typed stub for a reference; generated bindings
// register one per interface repository ID.
type StubFactory func(o *ORB, ref ObjectRef) any

// servant is one exported object: the implementation plus its dispatch
// table (the delegation skeleton of Fig. 2).
type servant struct {
	oid    string
	typeID string
	table  *MethodTable
	impl   any
}

// ORB is one HeidiRMI address space: a bootstrap listener, the object
// adapter mapping object identifiers to servants, stub/skeleton caches and
// a client connection pool.
type ORB struct {
	opts  Options
	proto wire.Protocol
	trans transport.Transport
	pool  *transport.Pool
	mux   *transport.MuxPool // non-nil iff Options.Multiplex

	mu        sync.Mutex
	listener  transport.Listener
	servants  map[string]*servant // oid -> servant
	byImpl    map[any]ObjectRef   // skeleton cache: impl -> exported ref
	stubs     map[string]any      // stub cache: ref string -> stub
	factories map[string]StubFactory
	conns     map[transport.Conn]struct{} // live server-side connections
	closed    bool

	// servantCache memoizes lookupServant hits by the request's literal
	// target string (lock-free reads on the dispatch path); invalidated
	// wholesale by Unexport.
	servantCache sync.Map
	// servantGen counts Unexport invalidations; the collocated fast path's
	// per-call servant memo revalidates against it, so a memoized pointer
	// can never outlive its servant.
	servantGen atomic.Uint64

	clientInts []ClientInterceptor
	serverInts []ServerInterceptor
	// clientIntN/serverIntN mirror len(clientInts)/len(serverInts) so the
	// per-call "any interceptors?" checks are atomic loads, not mutex
	// acquisitions — the collocated fast path cannot afford o.mu.
	clientIntN atomic.Int32
	serverIntN atomic.Int32

	// localEP publishes this ORB's own endpoint while the collocation fast
	// path is eligible: set by Start when Options.Collocation is
	// CollocateFast, cleared by Shutdown/Abort so post-shutdown collocated
	// calls fall through to the (closed) wire path and fail like remote
	// ones. One pointer load plus two string compares on the hot path.
	localEP atomic.Pointer[localEndpoint]

	// defTimeout copies Options.CallTimeout next to the invocation path's
	// other hot fields: the Options struct is large and cold, and the
	// per-call read was visible at collocated-dispatch timescales.
	defTimeout time.Duration

	// legacyWire simulates a pre-negotiation peer for tests: the server
	// drops the connection on a hello frame instead of answering, exactly
	// like a seed CDR reader erroring on the unknown message type.
	legacyWire bool
	// offerFeatures, when non-zero, restricts the feature set this ORB
	// offers in its hello (as dialer and as answerer) — a test seam for
	// peers built with fewer features.
	offerFeatures wire.Feature

	nextOID uint64 // object identifiers, atomically allocated
	reqID   uint32 // request identifiers

	retry *retryState
	adm   *admission

	// draining marks endpoint addresses whose server announced shutdown
	// (GOAWAY); rebound memoizes the Rebind hook's answers, keyed by the
	// original reference string so a stub's fixed reference maps straight
	// to its relocated target on every later call.
	draining sync.Map // addr string -> struct{}
	rebound  sync.Map // original ref string -> *reboundEntry
	rebind   atomic.Pointer[RebindFunc]

	// groups maps each registered replica member's reference string to its
	// group; groupCount lets the invocation path skip the map lookup
	// entirely while no set has ever been registered.
	groups     sync.Map // member ref string -> *replicaGroup
	groupCount atomic.Int32

	goAwaysSent atomic.Uint64
	goAwaysSeen atomic.Uint64

	wg    sync.WaitGroup
	reqWG sync.WaitGroup // in-flight server dispatches (drained by Shutdown)

	stats Stats
}

// Stats counts runtime events; all fields are cumulative.
type Stats struct {
	CallsSent        uint64
	OnewaysSent      uint64
	RequestsServed   uint64
	DispatchMisses   uint64
	StubCacheHits    uint64
	StubsCreated     uint64
	SkeletonsCreated uint64
	// Retries counts re-attempted invocations under the RetryPolicy.
	Retries uint64
	// MuxCalls counts invocations (two-way and oneway) sent over the
	// multiplexed shared-connection path.
	MuxCalls uint64
	// ReplicaPicks counts invocation attempts routed through a replica
	// group; Failovers counts the subset re-routed after an earlier attempt
	// of the same invocation failed.
	ReplicaPicks uint64
	Failovers    uint64
	// CollocatedCalls counts invocations dispatched through the collocation
	// fast path (CollocateFast). Each also counts in RequestsServed — the
	// servant did serve a request — but not in CallsSent/MuxCalls, which
	// count wire traffic.
	CollocatedCalls uint64
	// Hedges counts extra attempts launched by the hedging layer (not the
	// primaries); HedgeWins the invocations whose winning reply came from a
	// hedge rather than the primary; HedgeStragglers the losing attempts
	// whose late results were drained and discarded in the background.
	Hedges          uint64
	HedgeWins       uint64
	HedgeStragglers uint64
	// PingsServed counts wire.MsgPing liveness probes this ORB's server
	// side answered with a pong.
	PingsServed uint64
}

// localEndpoint is the published identity a collocated reference matches.
type localEndpoint struct {
	proto string
	addr  string
}

// New creates an ORB with the given options. Call Start to begin serving;
// a pure-client ORB may skip Start.
func New(opts Options) *ORB {
	if opts.Protocol == nil {
		opts.Protocol = wire.Text
	}
	if opts.Transport == nil {
		opts.Transport = transport.NewTCP(opts.Protocol)
	}
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.Balance == nil {
		opts.Balance = balance.RoundRobin()
	}
	o := &ORB{
		opts:      opts,
		proto:     opts.Protocol,
		trans:     opts.Transport,
		servants:  make(map[string]*servant),
		byImpl:    make(map[any]ObjectRef),
		stubs:     make(map[string]any),
		factories: make(map[string]StubFactory),
		conns:     make(map[transport.Conn]struct{}),
	}
	o.defTimeout = opts.CallTimeout
	o.pool = &transport.Pool{
		Dial:        opts.Transport.Dial,
		Disabled:    opts.DisableConnCache,
		IdleTTL:     opts.ConnIdleTTL,
		MaxLifetime: opts.ConnMaxLifetime,
	}
	if opts.Breaker.Threshold > 0 {
		bs := transport.NewBreakerSet(opts.Breaker)
		bs.OnStateChange = opts.OnBreakerChange
		o.pool.Breaker = bs
	}
	if opts.Multiplex {
		// The mux pool shares the exclusive pool's breaker set, so an
		// endpoint's failures trip one circuit no matter which path fed
		// them, and PoolStats.Breakers stays the single source of truth.
		o.mux = &transport.MuxPool{
			Dial:     opts.Transport.Dial,
			Width:    opts.MuxConnsPerEndpoint,
			Breaker:  o.pool.Breaker,
			Coalesce: opts.CoalesceWrites,
		}
		// A GOAWAY on any shared connection marks its endpoint draining, so
		// the next invocation re-resolves instead of pipelining into the
		// dying server.
		o.mux.OnDraining = o.markDraining
	}
	if opts.KeepaliveInterval > 0 {
		// Liveness: shared connections get a resident prober; the exclusive
		// pool gets a checkout-time ping probe on long-idle connections
		// (probing every checkout would put a round-trip on the hot path).
		if o.mux != nil {
			o.mux.Keepalive = opts.KeepaliveInterval
		}
		o.pool.ProbeIdle = opts.KeepaliveInterval
		o.pool.Probe = transport.PingProbe(transport.StuckIntervals * opts.KeepaliveInterval)
	}
	if opts.Negotiate {
		// Route every client dial (exclusive and mux) through one shared
		// Negotiator so the legacy cache is learned once per peer, not per
		// pool.
		neg := &transport.Negotiator{
			Dial:  opts.Transport.Dial,
			Offer: o.helloOffer(),
		}
		o.pool.Dial = neg.DialConn
		if o.mux != nil {
			o.mux.Dial = neg.DialConn
		}
	}
	o.retry = newRetryState(opts.Retry)
	o.adm = newAdmission(opts.Admission)
	if opts.Rebind != nil {
		f := opts.Rebind
		o.rebind.Store(&f)
	}
	return o
}

// SetRebind installs (or, with nil, removes) the drain-aware rebind hook
// after construction — naming.Directory is typically built against an ORB
// that already exists.
func (o *ORB) SetRebind(f RebindFunc) {
	if f == nil {
		o.rebind.Store(nil)
		return
	}
	o.rebind.Store(&f)
}

// markDraining records that addr's server announced shutdown.
func (o *ORB) markDraining(addr string) {
	o.goAwaysSeen.Add(1)
	o.draining.Store(addr, struct{}{})
}

// reboundEntry memoizes one Rebind answer (the reference and its
// stringified request header).
type reboundEntry struct {
	ref ObjectRef
	str string
}

// routeRef maps an invocation target through the drain-aware rebind layer:
// while ref's endpoint has not announced draining (the overwhelmingly common
// case) the original reference is returned untouched; afterwards the Rebind
// hook re-resolves it and the answer is memoized under the original
// reference string. Chained drains re-resolve from the latest answer.
func (o *ORB) routeRef(ref ObjectRef, refStr string) (ObjectRef, string) {
	fp := o.rebind.Load()
	if fp == nil {
		return ref, refStr
	}
	cur, curStr := ref, refStr
	if e, ok := o.rebound.Load(refStr); ok {
		re := e.(*reboundEntry)
		cur, curStr = re.ref, re.str
	}
	if _, draining := o.draining.Load(cur.Addr); !draining {
		return cur, curStr
	}
	nref, err := (*fp)(cur)
	if err != nil || nref.IsNil() || nref == cur {
		// No better answer: keep the current endpoint (and ask again on
		// the next call — naming may catch up).
		return cur, curStr
	}
	e := &reboundEntry{ref: nref, str: nref.String()}
	o.rebound.Store(refStr, e)
	return e.ref, e.str
}

// Protocol returns the ORB's wire protocol.
func (o *ORB) Protocol() wire.Protocol { return o.proto }

// Start opens the bootstrap port and begins accepting connections
// (Fig. 5 step 1). It returns once the listener is bound, so Addr is valid
// immediately after.
func (o *ORB) Start() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ErrShutdown
	}
	if o.listener != nil {
		return fmt.Errorf("orb: already started on %s", o.listener.Addr())
	}
	l, err := o.trans.Listen(o.opts.ListenAddr)
	if err != nil {
		return fmt.Errorf("orb: starting bootstrap listener: %w", err)
	}
	o.listener = l
	if o.opts.Collocation == CollocateFast {
		// From here on, references minted by this ORB are recognizable as
		// collocated by the invocation path.
		o.localEP.Store(&localEndpoint{proto: o.trans.Name(), addr: l.Addr()})
	}
	o.wg.Add(1)
	go o.acceptLoop(l)
	return nil
}

// Addr returns the bootstrap endpoint, or "" before Start.
func (o *ORB) Addr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.listener == nil {
		return ""
	}
	return o.listener.Addr()
}

// Shutdown stops the listener, announces the drain with a GOAWAY frame on
// every live server-side connection (so mux clients stop pipelining here and
// re-resolve via their Rebind hook), drains in-flight server dispatches
// (their replies are still sent; Options.DrainTimeout bounds the wait), then
// closes pooled and serving connections and waits for connection goroutines
// to exit.
func (o *ORB) Shutdown() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	l := o.listener
	conns := make([]transport.Conn, 0, len(o.conns))
	for c := range o.conns {
		conns = append(conns, c)
	}
	o.mu.Unlock()
	// Withdraw the collocation fast path first: calls started after this
	// point take the wire path and fail like remote callers of a dying
	// server (pool closed → ErrShutdown), instead of dispatching into an
	// address space that is tearing down.
	o.localEP.Store(nil)

	if l != nil {
		l.Close()
	}
	// Announce the drain before waiting it out: clients that hear the
	// GOAWAY stop submitting here, which is what makes the drain converge
	// under sustained load. Conn.Send is frame-atomic against concurrent
	// reply writes (plain and gathered share the conn's send lock). Each
	// announcement gets its own goroutine: a peer that is not currently
	// reading (an idle pooled connection over a synchronous in-memory
	// pipe) would block a direct send indefinitely; stragglers unblock
	// with an error when the connections are closed after the drain.
	var goAwayWG sync.WaitGroup
	// Static: the broadcast frame is shared by every announcement goroutine
	// and owned here; it must never end up in the message pool.
	ga := &wire.Message{Type: wire.MsgGoAway, Static: true}
	for _, c := range conns {
		goAwayWG.Add(1)
		go func(c transport.Conn) {
			defer goAwayWG.Done()
			if c.Send(ga) == nil {
				o.goAwaysSent.Add(1)
			}
		}(c)
	}
	// Give the broadcast a moment to reach reading peers before the
	// connections come down: with nothing in flight the drain below is
	// instant, and closing a connection before its announcement goroutine
	// runs would lose the GOAWAY an attentive client needed. Reading
	// peers take the frame in microseconds; the timeout only fires for
	// peers that never read, whose send is abandoned at close anyway.
	sent := make(chan struct{})
	go func() { goAwayWG.Wait(); close(sent) }()
	select {
	case <-sent:
	case <-time.After(50 * time.Millisecond):
	}
	// Graceful drain: requests already being dispatched finish and
	// reply over their still-open connections. serveConn stops starting
	// new dispatches once closed is set, so this converges; DrainTimeout
	// bounds the wait against a servant that never returns.
	if d := o.opts.DrainTimeout; d > 0 {
		done := make(chan struct{})
		go func() { o.reqWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(d):
		}
	} else {
		o.reqWG.Wait()
	}
	// Unblock per-connection server goroutines parked in Recv on
	// connections the peers keep cached (and any GOAWAY send still stuck
	// on a peer that stopped reading).
	for _, c := range conns {
		c.Close()
	}
	goAwayWG.Wait()
	o.pool.Close()
	if o.mux != nil {
		o.mux.Close()
	}
	o.wg.Wait()
	return nil
}

// Abort tears the ORB down with no grace at all: no GOAWAY announcement, no
// drain — the listener and every live connection close immediately and
// in-flight dispatches lose their reply channel mid-flight. It approximates a
// killed process for failover testing (clients see ambiguous failures, not an
// orderly drain) and is the emergency stop when a drain cannot be afforded.
// Unlike a real kill it still reclaims this address space's goroutines:
// servants already dispatched run to completion against closed connections.
func (o *ORB) Abort() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	l := o.listener
	conns := make([]transport.Conn, 0, len(o.conns))
	for c := range o.conns {
		conns = append(conns, c)
	}
	o.mu.Unlock()
	o.localEP.Store(nil)

	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	o.pool.Close()
	if o.mux != nil {
		o.mux.Close()
	}
	o.wg.Wait()
	return nil
}

// Stats returns a snapshot of runtime counters.
func (o *ORB) Stats() Stats {
	return Stats{
		CallsSent:        atomic.LoadUint64(&o.stats.CallsSent),
		OnewaysSent:      atomic.LoadUint64(&o.stats.OnewaysSent),
		RequestsServed:   atomic.LoadUint64(&o.stats.RequestsServed),
		DispatchMisses:   atomic.LoadUint64(&o.stats.DispatchMisses),
		StubCacheHits:    atomic.LoadUint64(&o.stats.StubCacheHits),
		StubsCreated:     atomic.LoadUint64(&o.stats.StubsCreated),
		SkeletonsCreated: atomic.LoadUint64(&o.stats.SkeletonsCreated),
		Retries:          atomic.LoadUint64(&o.stats.Retries),
		MuxCalls:         atomic.LoadUint64(&o.stats.MuxCalls),
		ReplicaPicks:     atomic.LoadUint64(&o.stats.ReplicaPicks),
		Failovers:        atomic.LoadUint64(&o.stats.Failovers),
		CollocatedCalls:  atomic.LoadUint64(&o.stats.CollocatedCalls),
		Hedges:           atomic.LoadUint64(&o.stats.Hedges),
		HedgeWins:        atomic.LoadUint64(&o.stats.HedgeWins),
		HedgeStragglers:  atomic.LoadUint64(&o.stats.HedgeStragglers),
		PingsServed:      atomic.LoadUint64(&o.stats.PingsServed),
	}
}

// PoolStats returns the connection cache counters.
func (o *ORB) PoolStats() transport.PoolStats { return o.pool.Stats() }

// MuxStats returns the shared-connection counters; the zero value when
// Options.Multiplex is off.
func (o *ORB) MuxStats() transport.MuxPoolStats {
	if o.mux == nil {
		return transport.MuxPoolStats{}
	}
	return o.mux.Stats()
}

// --- object adapter ----------------------------------------------------------

// Export registers an implementation with its dispatch table and returns
// its object reference. Exporting the same implementation again returns the
// cached reference (the skeleton cache of §3.1). The ORB must have been
// started, since the reference embeds the bootstrap endpoint.
func (o *ORB) Export(impl any, table *MethodTable) (ObjectRef, error) {
	if impl == nil || table == nil {
		return ObjectRef{}, fmt.Errorf("orb: Export requires an implementation and a method table")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return ObjectRef{}, ErrShutdown
	}
	if ref, ok := o.byImpl[impl]; ok {
		return ref, nil
	}
	if o.listener == nil {
		return ObjectRef{}, fmt.Errorf("orb: cannot export before Start (reference needs the bootstrap endpoint)")
	}
	table.SetStrategy(o.opts.DispatchStrategy)
	oid := strconv.FormatUint(atomic.AddUint64(&o.nextOID, 1), 10)
	ref := ObjectRef{
		Proto:    o.trans.Name(),
		Addr:     o.listener.Addr(),
		ObjectID: oid,
		TypeID:   table.TypeID(),
	}
	o.servants[oid] = &servant{oid: oid, typeID: table.TypeID(), table: table, impl: impl}
	o.byImpl[impl] = ref
	atomic.AddUint64(&o.stats.SkeletonsCreated, 1)
	return ref, nil
}

// ExportIfNeeded implements the paper's lazy skeleton creation: "The
// skeleton for a particular object is only created when a reference to it
// is being passed" (§3.1). Stubs forward their existing reference; already
// exported implementations reuse their reference; otherwise mkTable is
// invoked to build the skeleton and the object is exported.
func (o *ORB) ExportIfNeeded(impl any, mkTable func() *MethodTable) (ObjectRef, error) {
	if rh, ok := impl.(RefHolder); ok {
		return rh.HdRef(), nil
	}
	o.mu.Lock()
	ref, ok := o.byImpl[impl]
	o.mu.Unlock()
	if ok {
		return ref, nil
	}
	if mkTable == nil {
		return ObjectRef{}, fmt.Errorf("%w (type %T)", ErrNotExportable, impl)
	}
	return o.Export(impl, mkTable())
}

// Unexport removes a servant, releasing its object identifier.
func (o *ORB) Unexport(impl any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ref, ok := o.byImpl[impl]; ok {
		delete(o.servants, ref.ObjectID)
		delete(o.byImpl, impl)
		// Drop the whole dispatch cache: entries are keyed by the client's
		// literal target spelling, so the removed servant's keys cannot be
		// enumerated directly.
		o.servantCache.Range(func(k, _ any) bool {
			o.servantCache.Delete(k)
			return true
		})
		o.servantGen.Add(1)
	}
}

// RegisterStubFactory installs the stub constructor for a repository ID.
// Generated bindings call this during registration.
func (o *ORB) RegisterStubFactory(typeID string, f StubFactory) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.factories[typeID] = f
}

// Resolve returns a client object for a reference: the local
// implementation when the reference names a servant in this address space,
// otherwise a stub built by the registered factory (and cached, §3.1:
// "Both stubs and skeletons are cached in each address-space in order to
// minimize the overhead of their creation").
func (o *ORB) Resolve(ref ObjectRef) (any, error) {
	if ref.IsNil() {
		return nil, nil
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, ErrShutdown
	}
	// Collocated object: hand back the implementation itself.
	if o.listener != nil && ref.Addr == o.listener.Addr() && ref.Proto == o.trans.Name() {
		defer o.mu.Unlock()
		if s, ok := o.servants[ref.ObjectID]; ok {
			return s.impl, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrUnknownObject, ref)
	}
	if !o.opts.DisableStubCache {
		if stub, ok := o.stubs[ref.String()]; ok {
			o.mu.Unlock()
			atomic.AddUint64(&o.stats.StubCacheHits, 1)
			return stub, nil
		}
	}
	f, ok := o.factories[ref.TypeID]
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("orb: no stub factory registered for %q", ref.TypeID)
	}
	// Run the factory outside o.mu: factories are user/generated code that
	// may legitimately re-enter the ORB (resolving a nested reference,
	// exporting a callback object) and would self-deadlock under the lock.
	stub := f(o, ref)
	atomic.AddUint64(&o.stats.StubsCreated, 1)
	if !o.opts.DisableStubCache {
		o.mu.Lock()
		defer o.mu.Unlock()
		// Re-check: a concurrent Resolve may have inserted first; keep the
		// cached stub so every caller shares one instance (§3.1).
		if cached, ok := o.stubs[ref.String()]; ok {
			return cached, nil
		}
		o.stubs[ref.String()] = stub
	}
	return stub, nil
}

// lookupServant finds the servant for an incoming request's target. Hits are
// served from a lock-free cache keyed by the request's literal target string:
// every request pays this lookup, and parsing the reference plus taking the
// ORB lock was measurable at high pipelining depth. The cache is invalidated
// wholesale on Unexport (rare) — a stale entry can otherwise outlive its
// servant.
func (o *ORB) lookupServant(refStr string) (*servant, error) {
	if s, ok := o.servantCache.Load(refStr); ok {
		return s.(*servant), nil
	}
	ref, err := ParseRef(refStr)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	s, ok := o.servants[ref.ObjectID]
	o.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %q", ErrUnknownObject, ref.ObjectID)
	}
	o.servantCache.Store(refStr, s)
	return s, nil
}

// --- server loop -------------------------------------------------------------

// acceptLoop accepts connections on the bootstrap port and serves each on
// its own goroutine (Fig. 5: an ObjectCommunicator is wrapped around every
// accepted connection).
func (o *ORB) acceptLoop(l transport.Listener) {
	defer o.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		o.wg.Add(1)
		go o.serveConn(c)
	}
}

// serveConn reads requests off one connection and dispatches them until the
// peer closes. With Options.MaxConcurrentPerConn at its zero value each
// request is served inline — strictly serially, the seed behavior. With a
// positive bound, requests dispatch on a bounded worker pool so a pipelined
// client's later requests are not stuck behind a slow call; interleaved
// replies are serialized by the connection's internal send lock.
func (o *ORB) serveConn(c transport.Conn) {
	defer o.wg.Done()
	defer c.Close()
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.conns[c] = struct{}{}
	o.mu.Unlock()
	defer func() {
		o.mu.Lock()
		delete(o.conns, c)
		o.mu.Unlock()
	}()
	var (
		connWG sync.WaitGroup
		active int32 // requests accepted but not yet replied (group-commit hint)
	)
	// With write coalescing on and concurrent dispatch enabled, replies
	// from the per-connection workers batch into gathered writes instead
	// of each taking the conn's send lock and a syscall. The in-flight
	// request count is the group-commit hint: with other requests accepted
	// and not yet replied, more reply frames are imminent, so queue this
	// one for gathering; the last reply standing takes the direct write.
	// The read loop increments at accept — counting at dispatch start would
	// undercount on a busy connection, since requests the read loop has
	// pulled off the wire but not yet handed over are exactly the ones
	// about to produce replies worth waiting for.
	send := c.Send
	if o.opts.CoalesceWrites && o.opts.MaxConcurrentPerConn > 1 {
		co := transport.NewCoalescer(c)
		// Runs after connWG.Wait below (defers are LIFO), so every
		// worker's reply has been flushed or failed before the conn dies.
		defer co.Close()
		send = func(m *wire.Message) error {
			if atomic.LoadInt32(&active) > 1 {
				return co.SendBatched(m)
			}
			return co.Send(m)
		}
	}
	// Let in-flight workers finish sending their replies before the
	// deferred c.Close above runs (defers are LIFO).
	defer connWG.Wait()
	// Concurrent dispatch runs on persistent per-connection workers rather
	// than a goroutine per request: worker stacks grow through the dispatch
	// + send path once and stay grown, where fresh 2 KiB-stack goroutines
	// would pay a copystack inside the write syscall on every request.
	// Workers spawn lazily up to the bound; the unbuffered channel gives the
	// same backpressure as a semaphore — the read loop blocks when every
	// worker is busy.
	var (
		reqs    chan *wire.Message
		workers int
	)
	limit := o.opts.MaxConcurrentPerConn
	if limit > 0 {
		reqs = make(chan *wire.Message)
		defer close(reqs) // before connWG.Wait: lets idle workers exit
	}
	worker := func() {
		defer connWG.Done()
		for m := range reqs {
			o.serveRequest(send, m)
			atomic.AddInt32(&active, -1)
			o.reqWG.Done()
		}
	}
	for {
		m, err := c.Recv()
		if err != nil {
			return // closed or protocol error: drop the connection
		}
		if m.Type == wire.MsgHello {
			if o.legacyWire {
				// Simulated pre-negotiation peer: die on the unknown frame
				// the way a seed codec would, so the dialer's legacy
				// fallback is exercised end to end.
				wire.FreeMessage(m)
				return
			}
			o.answerHello(send, m)
			wire.FreeMessage(m)
			continue
		}
		if m.Type == wire.MsgPing {
			// A liveness probe from the peer's keepalive prober or pool
			// checkout probe: answer out of band, never entering dispatch
			// (no admission, no servant resolution — a stuck server should
			// still answer pings only if its reader is alive, which is
			// exactly what the probe is measuring).
			o.answerPing(send, m.RequestID)
			wire.FreeMessage(m)
			continue
		}
		if m.Type != wire.MsgRequest {
			wire.FreeMessage(m)
			continue // ignore stray replies (and stray pongs)
		}
		// Register the dispatch under reqWG while holding mu, so
		// Shutdown (which sets closed under mu before draining) either
		// sees this request or prevents it — never a late Add racing
		// the drain.
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			// Shed, don't ghost: a request that raced the drain gets an
			// explicit StatusOverloaded — a safe failure the client retries
			// (after rebinding via GOAWAY) instead of waiting out its
			// deadline on a reply that will never come.
			if !m.Oneway {
				o.sendReply(send, m.RequestID, wire.StatusOverloaded, "orb: server draining", nil)
			}
			wire.FreeMessage(m)
			return
		}
		o.reqWG.Add(1)
		o.mu.Unlock()
		if reqs == nil {
			o.serveRequest(send, m)
			o.reqWG.Done()
			continue
		}
		atomic.AddInt32(&active, 1)
		select {
		case reqs <- m: // an idle worker took it
		default:
			if workers < limit {
				workers++
				connWG.Add(1)
				go worker()
			}
			reqs <- m // bound reached: block reading until a worker frees
		}
	}
}

// helloOffer is the feature set and codec preference this ORB advertises in
// negotiation, as dialer and as answerer.
func (o *ORB) helloOffer() wire.Hello {
	feats := o.offerFeatures
	if feats == 0 {
		feats = wire.FeatureCoalesce | wire.FeatureDeadline | wire.FeatureKeepalive
	}
	return wire.Hello{
		Version:  wire.HelloVersion,
		Features: feats,
		Codecs:   []string{o.proto.Name()},
	}
}

// answerHello replies to a client's negotiation offer with the intersection
// of the two ends' terms. The server always answers — Options.Negotiate only
// governs dialing — so a non-negotiating server of this build still settles
// terms with a negotiating client in one round-trip. A malformed offer gets
// an empty-featured answer rather than silence: both ends then agree on
// "nothing beyond baseline", and the connection stays usable.
func (o *ORB) answerHello(send func(*wire.Message) error, m *wire.Message) {
	var ans wire.Hello
	if offer, err := wire.ParseHello(m.Body); err != nil {
		ans = wire.Hello{Version: wire.HelloVersion}
	} else {
		ans = o.helloOffer().Intersect(offer)
	}
	r := wire.NewMessage()
	r.Type = wire.MsgHello
	r.Body = ans.Encode()
	send(r)
	wire.FreeMessage(r)
}

// answerPing replies to a peer's liveness probe with a pong echoing its
// RequestID. Best effort: a failed send means the connection is dying and
// the read loop will see it.
func (o *ORB) answerPing(send func(*wire.Message) error, id uint32) {
	pong := wire.NewMessage()
	pong.Type = wire.MsgPong
	pong.RequestID = id
	send(pong)
	wire.FreeMessage(pong)
	atomic.AddUint64(&o.stats.PingsServed, 1)
}

// sendReply emits one reply frame through the connection's send path (plain
// or coalesced), using a pooled message struct.
func (o *ORB) sendReply(send func(*wire.Message) error, id uint32, status wire.ReplyStatus, errMsg string, body []byte) {
	r := wire.NewMessage()
	r.Type = wire.MsgReply
	r.RequestID = id
	r.Status = status
	r.ErrMsg = errMsg
	r.Body = body
	send(r)
	wire.FreeMessage(r)
}

// dispatchMethod runs the skeleton lookup and handler for one request,
// wire-borne or collocated.
func (o *ORB) dispatchMethod(s *servant, method string, sc *ServerCall) error {
	handled, err := s.table.Dispatch(method, sc)
	if !handled {
		atomic.AddUint64(&o.stats.DispatchMisses, 1)
		return &errNotDispatched{typeID: s.typeID, method: method}
	}
	return err
}

// serveRequest handles a single request message. It owns m (and the read
// buffer its body views), releasing both when the dispatch completes.
//
// The request's propagated deadline (wire millis, relative to receipt) is
// enforced at three points: admission (dead-on-arrival and expired-in-queue
// requests are refused without dispatch), during the servant (which may poll
// ServerCall.Expired/Deadline to abandon long work), and after the servant
// returns — a result the caller stopped waiting for is replaced by
// StatusDeadlineExceeded, which the client classes fatal. The server-side
// deadline starts at receipt, strictly later than the caller's own timer,
// so that conversion can never race a caller still willing to accept the
// result.
func (o *ORB) serveRequest(send func(*wire.Message) error, m *wire.Message) {
	atomic.AddUint64(&o.stats.RequestsServed, 1)
	defer wire.FreeMessage(m)

	var deadline time.Time
	if m.Deadline > 0 {
		deadline = time.Now().Add(time.Duration(m.Deadline) * time.Millisecond)
	}
	switch o.adm.acquire(deadline) {
	case admitShed:
		if !m.Oneway {
			o.sendReply(send, m.RequestID, wire.StatusOverloaded, "orb: admission queue full", nil)
		}
		return
	case admitExpired:
		if !m.Oneway {
			o.sendReply(send, m.RequestID, wire.StatusDeadlineExceeded, "orb: deadline expired before dispatch", nil)
		}
		return
	}
	defer o.adm.release()

	s, err := o.lookupServant(m.TargetRef)
	if err != nil {
		if !m.Oneway {
			o.sendReply(send, m.RequestID, wire.StatusUnknownObject, err.Error(), nil)
		}
		return
	}
	sc := o.getServerCall(m)
	sc.deadline = deadline
	defer putServerCall(sc)
	if o.hasServerInts() {
		sc.ctx = ServerContext{TargetRef: m.TargetRef, TypeID: s.typeID, Method: m.Method, Oneway: m.Oneway, Deadline: deadline}
		err = o.runServerChain(&sc.ctx, func() error { return o.dispatchMethod(s, m.Method, sc) })
	} else {
		err = o.dispatchMethod(s, m.Method, sc)
	}
	if m.Oneway {
		return
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// The servant outran the caller's patience: whatever it produced,
		// nobody is waiting for it.
		o.sendReply(send, m.RequestID, wire.StatusDeadlineExceeded, "orb: deadline exceeded during dispatch", nil)
		return
	}
	switch {
	case err == nil:
		o.sendReply(send, m.RequestID, wire.StatusOK, "", sc.enc.Bytes())
	case errors.Is(err, ErrUnknownMethod):
		o.sendReply(send, m.RequestID, wire.StatusUnknownMethod, err.Error(), nil)
	default:
		if _, ok := err.(UserError); ok {
			o.sendReply(send, m.RequestID, wire.StatusUserException, err.Error(), nil)
		} else {
			o.sendReply(send, m.RequestID, wire.StatusSystemError, err.Error(), nil)
		}
	}
}
