package orb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balance"
	"repro/internal/heidi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// callBase carries the marshaling surface shared by client and server
// calls: typed Put/Get primitives delegating to the protocol's
// encoder/decoder, plus the object-reference and pass-by-value helpers.
// A call implements heidi.Writer and heidi.Reader, so HdSerializable
// objects marshal themselves straight into the call (§3.1).
type callBase struct {
	orb *ORB
	enc wire.Encoder
	dec wire.Decoder
	// proto is the protocol enc/dec belong to; pooled calls reuse them via
	// Reset only when the owning ORB's protocol matches.
	proto wire.Protocol
}

// --- marshaling (heidi.Writer and extras) ------------------------------------

func (c *callBase) PutBool(v bool)        { c.enc.PutBool(v) }
func (c *callBase) PutOctet(v byte)       { c.enc.PutOctet(v) }
func (c *callBase) PutShort(v int16)      { c.enc.PutShort(v) }
func (c *callBase) PutUShort(v uint16)    { c.enc.PutUShort(v) }
func (c *callBase) PutLong(v int32)       { c.enc.PutLong(v) }
func (c *callBase) PutULong(v uint32)     { c.enc.PutULong(v) }
func (c *callBase) PutLongLong(v int64)   { c.enc.PutLongLong(v) }
func (c *callBase) PutULongLong(v uint64) { c.enc.PutULongLong(v) }
func (c *callBase) PutFloat(v float32)    { c.enc.PutFloat(v) }
func (c *callBase) PutDouble(v float64)   { c.enc.PutDouble(v) }
func (c *callBase) PutChar(v rune)        { c.enc.PutChar(v) }
func (c *callBase) PutString(v string)    { c.enc.PutString(v) }
func (c *callBase) Begin(tag string)      { c.enc.Begin(tag) }
func (c *callBase) End()                  { c.enc.End() }

// PutEnum marshals an enum ordinal.
func (c *callBase) PutEnum(v int32) { c.enc.PutLong(v) }

// --- unmarshaling (heidi.Reader and extras) ----------------------------------

func (c *callBase) GetBool() (bool, error)        { return c.dec.GetBool() }
func (c *callBase) GetOctet() (byte, error)       { return c.dec.GetOctet() }
func (c *callBase) GetShort() (int16, error)      { return c.dec.GetShort() }
func (c *callBase) GetUShort() (uint16, error)    { return c.dec.GetUShort() }
func (c *callBase) GetLong() (int32, error)       { return c.dec.GetLong() }
func (c *callBase) GetULong() (uint32, error)     { return c.dec.GetULong() }
func (c *callBase) GetLongLong() (int64, error)   { return c.dec.GetLongLong() }
func (c *callBase) GetULongLong() (uint64, error) { return c.dec.GetULongLong() }
func (c *callBase) GetFloat() (float32, error)    { return c.dec.GetFloat() }
func (c *callBase) GetDouble() (float64, error)   { return c.dec.GetDouble() }
func (c *callBase) GetChar() (rune, error)        { return c.dec.GetChar() }
func (c *callBase) GetString() (string, error)    { return c.dec.GetString() }
func (c *callBase) BeginGet() (string, error)     { return c.dec.BeginGet() }
func (c *callBase) EndGet() error                 { return c.dec.EndGet() }
func (c *callBase) Remaining() int                { return c.dec.Remaining() }

// GetEnum unmarshals an enum ordinal.
func (c *callBase) GetEnum() (int32, error) { return c.dec.GetLong() }

// --- object references ---------------------------------------------------------

// PutObjectRef marshals an object reference (nil allowed).
func (c *callBase) PutObjectRef(ref ObjectRef) {
	if ref.IsNil() {
		c.enc.PutString(NilRefString)
		return
	}
	c.enc.PutString(ref.String())
}

// GetObjectRef unmarshals an object reference.
func (c *callBase) GetObjectRef() (ObjectRef, error) {
	s, err := c.dec.GetString()
	if err != nil {
		return ObjectRef{}, err
	}
	return ParseRef(s)
}

// PutObject marshals a by-reference object parameter: a stub forwards its
// reference, an exported implementation reuses its reference, and an
// unexported implementation is exported on the spot with mkTable — the
// paper's lazily created skeleton (§3.1). Generated stubs pass the
// type-specific skeleton constructor as mkTable.
func (c *callBase) PutObject(impl any, mkTable func() *MethodTable) error {
	if impl == nil {
		c.PutObjectRef(ObjectRef{})
		return nil
	}
	ref, err := c.orb.ExportIfNeeded(impl, mkTable)
	if err != nil {
		return err
	}
	c.PutObjectRef(ref)
	return nil
}

// GetObject unmarshals a by-reference object parameter into a stub (or the
// local implementation for a collocated reference). Returns nil for a nil
// reference.
func (c *callBase) GetObject() (any, error) {
	ref, err := c.GetObjectRef()
	if err != nil {
		return nil, err
	}
	return c.orb.Resolve(ref)
}

// PutValue marshals a Serializable value (generated structs implement
// heidi.Serializable) into the call.
func (c *callBase) PutValue(v heidi.Serializable) error {
	c.enc.Begin(v.HdTypeName())
	if err := v.HdMarshal(c); err != nil {
		return fmt.Errorf("orb: marshaling %s: %w", v.HdTypeName(), err)
	}
	c.enc.End()
	return nil
}

// GetValue unmarshals a Serializable value in place.
func (c *callBase) GetValue(into heidi.Serializable) error {
	if _, err := c.dec.BeginGet(); err != nil {
		return err
	}
	if err := into.HdUnmarshal(c); err != nil {
		return fmt.Errorf("orb: unmarshaling %s: %w", into.HdTypeName(), err)
	}
	return c.dec.EndGet()
}

// Wire markers for the incopy hybrid: value-carried or reference-carried.
const (
	incopyByValue = "V"
	incopyByRef   = "R"
)

// PutObjectIncopy implements the paper's incopy semantics: "object
// references passed incopy are copied across the IDL interface, if
// possible" (§3.1). A heidi.Serializable argument travels by value (its
// type name plus its marshaled state — no skeleton is ever created);
// anything else falls back to by-reference with lazy export.
func (c *callBase) PutObjectIncopy(impl any, mkTable func() *MethodTable) error {
	if s, ok := heidi.IsSerializable(impl); ok {
		c.enc.PutString(incopyByValue)
		c.enc.Begin(s.HdTypeName())
		c.enc.PutString(s.HdTypeName())
		if err := s.HdMarshal(c); err != nil {
			return fmt.Errorf("orb: marshaling %s by value: %w", s.HdTypeName(), err)
		}
		c.enc.End()
		return nil
	}
	c.enc.PutString(incopyByRef)
	return c.PutObject(impl, mkTable)
}

// GetObjectIncopy unmarshals an incopy parameter: a by-value payload is
// reconstructed through Heidi's dynamic type registry ("the type
// information contained in the object reference is utilized to create a
// stub of the appropriate type" — here, the value's registered type
// creates a fresh local instance); a by-reference payload resolves to a
// stub as usual.
func (c *callBase) GetObjectIncopy() (any, error) {
	marker, err := c.dec.GetString()
	if err != nil {
		return nil, err
	}
	switch marker {
	case incopyByValue:
		if _, err := c.dec.BeginGet(); err != nil {
			return nil, err
		}
		typeName, err := c.dec.GetString()
		if err != nil {
			return nil, err
		}
		obj, err := heidi.NewInstance(typeName)
		if err != nil {
			return nil, err
		}
		if err := obj.HdUnmarshal(c); err != nil {
			return nil, fmt.Errorf("orb: unmarshaling %s by value: %w", typeName, err)
		}
		if err := c.dec.EndGet(); err != nil {
			return nil, err
		}
		return obj, nil
	case incopyByRef:
		return c.GetObject()
	default:
		return nil, fmt.Errorf("orb: bad incopy marker %q", marker)
	}
}

// --- client call ---------------------------------------------------------------

// ClientCall is the paper's Call object on the client side (Fig. 4): "a new
// Call object that provides the generic functionality for making a remote
// method call is created"; the target's stringified reference forms its
// header, parameters are marshaled in, and Invoke sends the request.
type ClientCall struct {
	callBase
	ref        ObjectRef
	method     string
	invoked    bool
	idempotent bool
	released   bool
	// timeout is the per-call round-trip bound; zero falls back to
	// Options.CallTimeout. The effective bound is propagated on the wire
	// as the request's relative deadline.
	timeout time.Duration
	// reply is the reply message whose (possibly lease-backed) body the
	// decoder views; it is held until Release so the view cannot be
	// recycled under the caller's Get reads.
	reply *wire.Message
	// colloc is the server-side call collocated fast-path dispatches run
	// on. It is embedded (not pooled per dispatch) because its lifetime is
	// naturally the ClientCall's: the reply body the client decoder views
	// is the server encoder's buffer (no copy is made), which therefore
	// must survive until Release — and the next collocated call on this
	// pooled ClientCall resets it anyway.
	colloc ServerCall
	// collocMsg is the embedded reply frame collocated dispatches fabricate
	// (marked wire.Message.Static so FreeMessage call sites on the shared
	// status-handling path never pool a caller-owned struct).
	collocMsg wire.Message
	// collocSrv memoizes the servant a collocated target resolved to,
	// valid while the owning ORB, its servant generation, and the routed
	// target string all still match — stubs hammer one reference, and the
	// servant-cache map lookup was measurable at fast-path timescales.
	// collocHandler/collocMethod memoize the resolved skeleton handler
	// under the same guard (cleared whenever the servant memo refreshes):
	// a registered name's handler can never change, so repeat calls skip
	// the dispatch-table walk entirely.
	collocSrv     *servant
	collocORB     *ORB
	collocStr     string
	collocGen     uint64
	collocHandler Handler
	collocMethod  string
	ctx           ClientContext
	// cachedRef/cachedStr memoize the stringified target header across pool
	// reuse (they survive Release): stubs invoke the same reference over and
	// over, and rebuilding the header string was measurable on the wire path.
	cachedRef ObjectRef
	cachedStr string
	// shardKey overrides the consistent-hashing key for this invocation;
	// empty falls back to the target reference string. tried records the
	// endpoint addresses already attempted this invocation, so replica
	// failover prefers members not yet burned. repCands/repEps/repIdx are
	// selection scratch reused across attempts and pooled reuse.
	shardKey string
	tried    []string
	repCands []replicaCand
	repEps   []balance.Endpoint
	repIdx   []int
}

// SetShardKey sets the key consistent-hash balancing shards this call by,
// instead of the default (the target reference string, which pins all of one
// stub's calls to one replica). Generated stubs or applications set it to a
// domain key — an account, a session — for finer sticky sharding. It has no
// effect on the other balance policies.
func (c *ClientCall) SetShardKey(k string) { c.shardKey = k }

// shardKeyOrDefault is the effective consistent-hashing key.
func (c *ClientCall) shardKeyOrDefault() string {
	if c.shardKey != "" {
		return c.shardKey
	}
	return c.targetRef()
}

// noteTried records an attempted endpoint address.
func (c *ClientCall) noteTried(addr string) {
	if !c.hasTried(addr) {
		c.tried = append(c.tried, addr)
	}
}

// hasTried reports whether this invocation already attempted addr. Linear
// scan: replica sets are small and the slice is pooled.
func (c *ClientCall) hasTried(addr string) bool {
	for _, a := range c.tried {
		if a == addr {
			return true
		}
	}
	return false
}

// targetRef returns the stringified target reference for the request header,
// memoized across pooled reuse of this call.
func (c *ClientCall) targetRef() string {
	// Field-wise compare, not struct equality: a stub re-invokes with the
	// very same ObjectRef value, so each string compare hits the
	// pointer-identity fast path inline — the compiler's generated struct-eq
	// routine (four runtime.memequal calls) was measurable on the
	// collocated fast path.
	if c.cachedStr == "" ||
		c.cachedRef.Addr != c.ref.Addr || c.cachedRef.ObjectID != c.ref.ObjectID ||
		c.cachedRef.Proto != c.ref.Proto || c.cachedRef.TypeID != c.ref.TypeID {
		c.cachedRef, c.cachedStr = c.ref, c.ref.String()
	}
	return c.cachedStr
}

// clientCallPool recycles ClientCall structs together with their
// encoder/decoder pairs; NewCall + Release on the hot path then allocate
// nothing.
var clientCallPool = sync.Pool{
	New: func() any { return new(ClientCall) },
}

// NewCall creates a Call for one remote method invocation.
func (o *ORB) NewCall(ref ObjectRef, method string) (*ClientCall, error) {
	if ref.IsNil() {
		return nil, fmt.Errorf("orb: call %q on nil object reference", method)
	}
	c := clientCallPool.Get().(*ClientCall)
	c.orb = o
	if c.enc == nil || c.proto != o.proto {
		c.proto = o.proto
		c.enc = o.proto.NewEncoder()
		c.dec = nil
	} else {
		c.enc.Reset()
	}
	c.ref = ref
	c.method = method
	c.invoked, c.idempotent, c.released = false, false, false
	c.timeout = 0
	c.shardKey = ""
	c.tried = c.tried[:0]
	return c, nil
}

// SetTimeout bounds this call's round trip, overriding Options.CallTimeout
// for this invocation only. The bound is propagated on the wire as the
// request's relative deadline, so an overloaded server sheds the work
// instead of computing a result nobody is waiting for. Zero restores the
// ORB default.
func (c *ClientCall) SetTimeout(d time.Duration) { c.timeout = d }

// callTimeout is the effective round-trip bound for this call.
func (c *ClientCall) callTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return c.orb.defTimeout
}

// deadlineMillis renders a timeout as the wire's relative-millisecond
// deadline: rounded up (never to zero, which means "unbounded" on the wire)
// and saturated at the field's width.
func deadlineMillis(d time.Duration) uint32 {
	ms := (int64(d) + int64(time.Millisecond) - 1) / int64(time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	return uint32(ms)
}

// Invoke sends the request and waits for the reply; afterwards the Get
// methods read the marshaled results. A non-OK reply surfaces as
// *RemoteError (matching orb.ErrUnknownMethod / orb.ErrUnknownObject via
// errors.Is).
func (c *ClientCall) Invoke() error {
	reply, err := c.roundTrip(false)
	if err != nil {
		return err
	}
	if reply.Status != wire.StatusOK {
		rerr := &RemoteError{Status: reply.Status, Msg: reply.ErrMsg}
		wire.FreeMessage(reply)
		return rerr
	}
	// Hold the reply until Release: the decoder's body view may alias a
	// pooled read buffer whose lease travels with the message.
	c.reply = reply
	if c.dec == nil {
		c.dec = c.orb.proto.NewDecoder(reply.Body)
	} else {
		c.dec.Reset(reply.Body)
	}
	return nil
}

// InvokeOneway sends the request without waiting for any reply (IDL oneway
// operations).
func (c *ClientCall) InvokeOneway() error {
	_, err := c.roundTrip(true)
	return err
}

// SetIdempotent marks this call as safe to retry even when a failure is
// ambiguous (the request may already have been processed), and hedgeable.
// Only code driving NewCall itself sets it: IDL has no idempotent annotation,
// so generated stubs never do; RetryPolicy.Idempotent names their methods.
func (c *ClientCall) SetIdempotent(v bool) { c.idempotent = v }

func (c *ClientCall) roundTrip(oneway bool) (*wire.Message, error) {
	if c.invoked {
		return nil, fmt.Errorf("orb: call %q invoked twice", c.method)
	}
	c.invoked = true
	if !c.orb.hasClientInts() {
		// No interceptors: skip the chain (and its closure) entirely — and
		// the context fill too; transact only writes ctx.Attempts.
		return c.transact(&c.ctx, oneway)
	}
	c.ctx = ClientContext{Ref: c.ref, Method: c.method, Oneway: oneway}
	var reply *wire.Message
	err := c.orb.runClientChain(&c.ctx, func() error {
		r, err := c.transact(&c.ctx, oneway)
		reply = r
		return err
	})
	return reply, err
}

// maxStaleReplies bounds how many mismatched messages one invocation will
// skip before declaring the peer misbehaving and discarding the
// connection; without a bound a bad server could spin a client forever.
const maxStaleReplies = 32

// transact performs the wire round trip of one invocation, re-attempting
// per the ORB's RetryPolicy. With the policy disabled (the default) exactly
// one attempt is made and the wire behavior is unchanged.
func (c *ClientCall) transact(ctx *ClientContext, oneway bool) (*wire.Message, error) {
	pol := c.orb.opts.Retry
	maxAttempts := pol.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	hedge := c.orb.opts.Hedge.enabled() && !oneway && c.hedgeable()
	for attempt := 1; ; attempt++ {
		ctx.Attempts = attempt
		var (
			reply *wire.Message
			class failureClass
			err   error
		)
		if hedge {
			reply, class, err = c.attemptHedged()
		} else {
			reply, class, err = c.attempt(oneway)
		}
		if err == nil && reply != nil {
			switch reply.Status {
			case wire.StatusOverloaded:
				// The server shed the request without dispatching it — a
				// safe failure the policy may retry after backoff (on a
				// rebound endpoint when the shed accompanied a drain).
				err = &RemoteError{Status: reply.Status, Msg: reply.ErrMsg}
				class = failSafe
				wire.FreeMessage(reply)
				reply = nil
			case wire.StatusDeadlineExceeded:
				// The propagated deadline expired server-side: the caller's
				// patience is already spent, so retrying cannot help.
				rerr := &RemoteError{Status: reply.Status, Msg: reply.ErrMsg}
				wire.FreeMessage(reply)
				return nil, rerr
			}
		}
		if err == nil {
			c.orb.refundRetryToken()
			return reply, nil
		}
		if attempt >= maxAttempts || !c.retryable(class, oneway) || !c.orb.takeRetryToken() {
			return nil, err
		}
		atomic.AddUint64(&c.orb.stats.Retries, 1)
		c.orb.backoffSleep(attempt)
	}
}

// retryable decides whether a failed attempt may be re-sent.
func (c *ClientCall) retryable(class failureClass, oneway bool) bool {
	switch class {
	case failSafe:
		return true
	case failAmbiguous:
		return oneway || c.hedgeable()
	default:
		return false
	}
}

// hedgeable reports whether this call is declared idempotent — by
// SetIdempotent or the retry policy's method predicate — and so may be
// issued more than once concurrently (hedging) or after an ambiguous
// failure (retry).
func (c *ClientCall) hedgeable() bool {
	if c.idempotent {
		return true
	}
	pol := c.orb.opts.Retry
	return pol.Idempotent != nil && pol.Idempotent(c.method)
}

// route resolves this attempt's target, preferring replica members not yet
// tried this invocation. It mutates the call's routing scratch (c.tried,
// repCands) and so must run on the invocation's coordinating goroutine —
// never inside a hedged attempt's goroutine.
func (c *ClientCall) route() (ObjectRef, string) {
	if c.orb.groupCount.Load() == 0 && c.orb.rebind.Load() == nil {
		// Trivial routing — no replica groups registered, no rebind hook:
		// routeCall would hand back (c.ref, c.targetRef()) unchanged, so
		// skip its layers outright; the collocated fast path runs at
		// timescales where even those empty traversals showed up.
		return c.ref, c.targetRef()
	}
	return c.orb.routeCall(c)
}

// attempt performs one round trip and classifies any failure. Routing runs
// first: a target collocated with this ORB takes the direct-dispatch fast
// path (collocate.go) when enabled; otherwise the attempt goes to the wire.
func (c *ClientCall) attempt(oneway bool) (*wire.Message, failureClass, error) {
	ref, refStr := c.route()
	if c.orb.isCollocated(ref) {
		return c.orb.dispatchCollocated(c, refStr, oneway)
	}
	return c.orb.wireAttempt(wireCall{
		ref: ref, refStr: refStr,
		method: c.method, oneway: oneway,
		failover: len(c.tried) > 0,
		timeout:  c.callTimeout(),
		body:     c.enc.Bytes(),
	})
}

// wireCall describes one remote attempt independently of the ClientCall
// that spawned it. Hedged attempts run on their own goroutines and may
// still be in flight after the winning result is returned and the pooled
// ClientCall released, so everything an attempt reads is snapshotted here:
//
//   - body is the marshaled arguments. The plain path passes the call
//     encoder's live buffer (exclusively owned for the attempt's
//     duration); the hedged path passes one immutable copy shared by all
//     attempts, since the encoder's buffer is recycled with the call.
//   - failover snapshots "has this invocation already burned an endpoint"
//     (len(c.tried) > 0) at launch, so attempt goroutines never read the
//     coordinator-mutated tried slice.
type wireCall struct {
	ref      ObjectRef
	refStr   string
	method   string
	oneway   bool
	failover bool
	timeout  time.Duration
	body     []byte
}

// wireAttempt performs one remote round trip — shared multiplexed
// connection when Options.Multiplex is on, exclusive pooled checkout
// otherwise — and classifies any failure.
func (o *ORB) wireAttempt(w wireCall) (*wire.Message, failureClass, error) {
	if o.mux != nil {
		return o.attemptMux(w)
	}
	return o.attemptPooled(w)
}

// attemptPooled performs one round trip over an exclusively checked-out
// pooled connection.
func (o *ORB) attemptPooled(w wireCall) (*wire.Message, failureClass, error) {
	conn, reused, err := o.pool.Checkout(w.ref.Addr)
	if err != nil {
		switch {
		case errors.Is(err, transport.ErrPoolClosed):
			// The pool closes only on Shutdown: surface the ORB's
			// shutdown sentinel, not a transport detail.
			return nil, failFatal, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, ErrShutdown)
		case errors.Is(err, transport.ErrCircuitOpen):
			// Fail fast: retrying a tripped endpoint defeats the
			// breaker's purpose — except on a replica-routed call, where
			// the breaker tripping between selection and checkout is a
			// safe failure the next attempt serves from another member.
			if w.failover {
				return nil, failSafe, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
			}
			return nil, failFatal, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
		}
		return nil, failSafe, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
	}
	id := atomic.AddUint32(&o.reqID, 1)
	req := wire.NewMessage()
	req.Type = wire.MsgRequest
	req.RequestID = id
	req.TargetRef = w.refStr
	req.Method = w.method
	req.Oneway = w.oneway
	req.Body = w.body
	d := w.timeout
	hasDeadline := d > 0
	if hasDeadline {
		// The deadline header rides the wire only when the peer understands
		// it (or the connection never negotiated, where static configuration
		// — both ends built alike — applies). Local enforcement via the
		// connection deadline is unconditional either way.
		if neg, ok := transport.Negotiation(conn); !ok || neg.Allows(wire.FeatureDeadline) {
			req.Deadline = deadlineMillis(d)
		}
		conn.SetDeadline(time.Now().Add(d))
	}
	// putBack clears the deadline while the connection is still
	// exclusively ours — clearing it after Put would race with the next
	// caller's checkout and clobber their deadline.
	putBack := func(healthy bool) {
		if hasDeadline && healthy {
			conn.SetDeadline(time.Time{})
		}
		o.pool.Put(w.ref.Addr, conn, healthy)
	}
	err = conn.Send(req)
	wire.FreeMessage(req) // the frame is on the wire (or failed); caller owns the body
	if err != nil {
		putBack(false)
		return nil, failSafe, fmt.Errorf("orb: sending %q to %s: %w", w.method, w.ref.Addr, err)
	}
	if w.oneway {
		atomic.AddUint64(&o.stats.OnewaysSent, 1)
		putBack(true)
		return nil, failNone, nil
	}
	atomic.AddUint64(&o.stats.CallsSent, 1)
	for skipped := 0; ; {
		reply, err := conn.Recv()
		if err != nil {
			putBack(false)
			class := failAmbiguous
			if reused && skipped == 0 && isConnClosed(err) {
				// A cached connection the peer closed while it
				// sat idle: nothing was processed.
				class = failSafe
			}
			if isTimeout(err) {
				// The per-call deadline fired before the reply: still
				// ambiguous (the server may be mid-dispatch), but callers
				// match it with errors.Is(err, ErrDeadlineExceeded).
				return nil, class, fmt.Errorf("orb: awaiting reply for %q: %w: %w", w.method, ErrDeadlineExceeded, err)
			}
			return nil, class, fmt.Errorf("orb: awaiting reply for %q: %w", w.method, err)
		}
		if reply.Type == wire.MsgGoAway {
			// The server is draining; later calls re-resolve via Rebind.
			// This reply still arrives on this connection, so keep reading.
			o.markDraining(w.ref.Addr)
			wire.FreeMessage(reply)
			continue
		}
		if reply.Type != wire.MsgReply || reply.RequestID != id {
			wire.FreeMessage(reply) // skipped: release its read-buffer lease
			skipped++
			if skipped >= maxStaleReplies {
				putBack(false)
				return nil, failAmbiguous, fmt.Errorf(
					"orb: awaiting reply for %q: gave up after %d mismatched messages from %s",
					w.method, skipped, w.ref.Addr)
			}
			continue // stale reply on a cached connection: skip
		}
		putBack(true)
		return reply, failNone, nil
	}
}

// isTimeout reports whether err is a transport-level deadline expiry (a
// net.Conn read deadline on the exclusive path, the per-call timer on the
// multiplexed path).
func isTimeout(err error) bool {
	if errors.Is(err, transport.ErrMuxTimeout) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// attemptMux performs one round trip over the endpoint's shared multiplexed
// connection. Classification mirrors the exclusive path, with the shapes a
// shared connection imposes:
//
//   - A dial or whole-send failure means the request never reached the peer
//     (failSafe); the circuit breaker is fed either way.
//   - Once the request is on the wire, any failure — the shared connection
//     dying under other callers' traffic included — is failAmbiguous, since
//     the peer may have processed the request before the channel died.
//   - CallTimeout is enforced with a per-call timer: SetDeadline is
//     connection-global and would abort every other caller sharing the
//     connection. A timed-out call is deregistered and its late reply
//     dropped by the demux reader; the connection stays up.
func (o *ORB) attemptMux(w wireCall) (*wire.Message, failureClass, error) {
	mc, err := o.mux.Get(w.ref.Addr)
	if err != nil {
		switch {
		case errors.Is(err, transport.ErrPoolClosed):
			return nil, failFatal, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, ErrShutdown)
		case errors.Is(err, transport.ErrCircuitOpen):
			if w.failover { // replica-routed: fail over, don't fail fast
				return nil, failSafe, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
			}
			return nil, failFatal, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
		}
		return nil, failSafe, fmt.Errorf("orb: connecting to %s: %w", w.ref.Addr, err)
	}
	id := atomic.AddUint32(&o.reqID, 1)
	req := wire.NewMessage()
	req.Type = wire.MsgRequest
	req.RequestID = id
	req.TargetRef = w.refStr
	req.Method = w.method
	req.Oneway = w.oneway
	req.Body = w.body
	d := w.timeout
	if d > 0 {
		// As on the exclusive path: stamp the header only for peers that
		// negotiated deadline support (or never negotiated). The per-call
		// timer below enforces the bound locally regardless.
		if neg, ok := mc.Negotiated(); !ok || neg.Allows(wire.FeatureDeadline) {
			req.Deadline = deadlineMillis(d)
		}
	}
	atomic.AddUint64(&o.stats.MuxCalls, 1)
	if w.oneway {
		err := mc.SendOneway(req)
		wire.FreeMessage(req)
		if err != nil {
			o.mux.Report(w.ref.Addr, false)
			return nil, sendFailureClass(err), fmt.Errorf("orb: sending %q to %s: %w", w.method, w.ref.Addr, err)
		}
		atomic.AddUint64(&o.stats.OnewaysSent, 1)
		o.mux.Report(w.ref.Addr, true)
		return nil, failNone, nil
	}
	pending, err := mc.Invoke(req)
	wire.FreeMessage(req) // sends are synchronous: the frame is out (or failed)
	if err != nil {
		o.mux.Report(w.ref.Addr, false)
		return nil, sendFailureClass(err), fmt.Errorf("orb: sending %q to %s: %w", w.method, w.ref.Addr, err)
	}
	atomic.AddUint64(&o.stats.CallsSent, 1)
	var timeout <-chan time.Time
	if d > 0 {
		// Pooled timer: Release stops AND drains it, so a fired-but-unread
		// expiry can never leak into the next caller's wait (the timer-leak
		// bug this PR's audit fixed).
		tm := transport.AcquireTimer(d)
		defer transport.ReleaseTimer(tm)
		timeout = tm.C
	}
	reply, err := pending.Wait(timeout)
	if err != nil {
		o.mux.Report(w.ref.Addr, false)
		if isTimeout(err) {
			return nil, failAmbiguous, fmt.Errorf("orb: awaiting reply for %q: %w: %w", w.method, ErrDeadlineExceeded, err)
		}
		return nil, failAmbiguous, fmt.Errorf("orb: awaiting reply for %q: %w", w.method, err)
	}
	o.mux.Report(w.ref.Addr, true)
	return reply, failNone, nil
}

// sendFailureClass classifies a multiplexed send failure. A plain send error
// means the frame did not go out whole (nothing for the peer to process), and
// ErrNotSent means the coalescer never attempted it — both failSafe. A frame
// caught in a failed gathered write (ErrFlushFailed) may have reached the
// peer, so it is ambiguous.
func sendFailureClass(err error) failureClass {
	if errors.Is(err, transport.ErrFlushFailed) {
		return failAmbiguous
	}
	return failSafe
}

// isConnClosed reports the error shapes a closed-by-peer connection
// produces on read.
func isConnClosed(err error) bool {
	return errors.Is(err, wire.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Release ends the call and recycles it; the Call object may not be used
// afterwards. It mirrors the HeidiRMI API shape (stubs release their Call
// after unmarshaling results) — and is what returns the reply's read-buffer
// lease, so result strings must be copied out (Get methods do) before it.
func (c *ClientCall) Release() {
	if c.released {
		return
	}
	c.released = true
	wire.FreeMessage(c.reply)
	c.reply = nil
	c.ref = ObjectRef{}
	c.orb = nil
	clientCallPool.Put(c)
}

// Method returns the remote method name.
func (c *ClientCall) Method() string { return c.method }

// --- server call -----------------------------------------------------------------

// ServerCall is the paper's Call object on the server side (Fig. 5): the
// skeleton's handler unmarshals parameters from it, invokes the target
// implementation, and marshals any results back in; the ORB sends the
// reply when the handler returns.
type ServerCall struct {
	callBase
	method string
	oneway bool
	// deadline is the server-side image of the request's propagated
	// deadline (zero: unbounded), anchored at receipt.
	deadline time.Time
	// req is the raw request frame this call was built from, nil on the
	// collocated fast path (no frame exists there). Valid only while the
	// handler runs: the dispatcher frees the frame after the handler
	// returns, so a handler keeping the body must RetainBody (or
	// ShareBodyInto a message it owns) before returning. The event-channel
	// broker uses this to fan a request body out without re-encoding it.
	req *wire.Message
	// body is the marshaled parameter bytes the decoder was built over —
	// the request frame's body on the wire path, the client encoder's bytes
	// on the collocated path. Same validity window as req.
	body []byte
	// ctx is the interceptor context, embedded so dispatching with
	// interceptors registered does not allocate one per request.
	ctx ServerContext
}

// serverCallPool recycles ServerCall structs with their encoder/decoder
// pairs across dispatches.
var serverCallPool = sync.Pool{
	New: func() any { return new(ServerCall) },
}

// getServerCall returns a ServerCall wired to o and m's body, reusing the
// pooled encoder/decoder when the protocol matches.
func (o *ORB) getServerCall(m *wire.Message) *ServerCall {
	sc := o.getServerCallBody(m.Method, m.Oneway, m.Body)
	sc.req = m
	return sc
}

// getServerCallBody is getServerCall without a wire message: the collocated
// fast path hands the client encoder's bytes straight to the server-side
// decoder (the codec round trip that realizes incopy deep-copy semantics).
func (o *ORB) getServerCallBody(method string, oneway bool, body []byte) *ServerCall {
	sc := serverCallPool.Get().(*ServerCall)
	o.fillServerCall(sc, method, oneway, body)
	return sc
}

// fillServerCall wires sc to o and body, reusing its encoder/decoder pair
// when the protocol matches. Shared between pooled server calls (the wire
// path) and the embedded one a ClientCall carries for collocated dispatch.
func (o *ORB) fillServerCall(sc *ServerCall, method string, oneway bool, body []byte) {
	sc.orb = o
	if sc.enc == nil || sc.proto != o.proto {
		sc.proto = o.proto
		sc.enc = o.proto.NewEncoder()
		sc.dec = o.proto.NewDecoder(body)
	} else {
		sc.enc.Reset()
		sc.dec.Reset(body)
	}
	sc.method, sc.oneway = method, oneway
	sc.req, sc.body = nil, body
}

// putServerCall recycles a ServerCall once its reply has been sent.
func putServerCall(sc *ServerCall) {
	sc.orb = nil
	sc.deadline = time.Time{}
	sc.req, sc.body = nil, nil
	sc.ctx = ServerContext{}
	serverCallPool.Put(sc)
}

// Method returns the invoked method name.
func (c *ServerCall) Method() string { return c.method }

// Oneway reports whether the request expects no reply.
func (c *ServerCall) Oneway() bool { return c.oneway }

// Deadline reports the request's propagated deadline (anchored at receipt)
// and whether one was set. Long-running servants should check it — the ORB
// cannot preempt a handler, but it will convert a result produced after the
// deadline into a StatusDeadlineExceeded reply.
func (c *ServerCall) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

// Expired reports whether the propagated deadline has already passed —
// the cheap poll for servants that can abandon work mid-way.
func (c *ServerCall) Expired() bool {
	return !c.deadline.IsZero() && !time.Now().Before(c.deadline)
}

// ORB returns the serving ORB (for Resolve/Export in handlers).
func (c *ServerCall) ORB() *ORB { return c.orb }

// Request returns the raw request frame this call was dispatched from, nil on
// the collocated fast path (no frame exists there). The frame is owned by the
// dispatcher and freed when the handler returns; a handler that keeps the
// body beyond that point must retain it (RetainBody / ShareBodyInto) first.
func (c *ServerCall) Request() *wire.Message { return c.req }

// RequestBody returns the marshaled parameter bytes the call's decoder reads
// from. Valid only while the handler runs; callers keeping the bytes must
// copy them (wire.Message.EnsureLeased on a frame wrapping them does).
func (c *ServerCall) RequestBody() []byte { return c.body }
