package orb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Collocation fast path (ISSUE 7 / DESIGN §12). A call whose routed target
// is exported by the invoking ORB itself does not need a connection, frames
// or a reader/worker handoff: the skeleton can run on the caller's own
// goroutine. What it must NOT skip is the calling convention — the paper's
// semantics do not change because the callee happens to share the address
// space:
//
//   - Parameters marshaled incopy are deep-copied: the client call's encoder
//     bytes are handed to a server-side decoder, so the servant unmarshals a
//     fresh copy exactly as it would off the wire. The codec round trip IS
//     the copy; only connection, framing and scheduling are skipped.
//   - Admission applies: collocated callers compete for the same
//     AdmissionPolicy slots as remote ones and are shed with
//     StatusOverloaded the same way (a collocated burst can overload a
//     server just as well as a remote one).
//   - Deadlines apply: an effective CallTimeout bounds the dispatch, and a
//     servant that outruns it gets its result replaced by
//     StatusDeadlineExceeded, exactly like the wire path.
//   - Interceptors apply on both sides: the client chain wraps the
//     invocation (roundTrip runs it before routing), the server chain wraps
//     the dispatch.
//   - Retry/breaker are bypassed but remain sound: every failure produced
//     here is either locally-known-safe (nothing dispatched — the replica
//     layer may fail over) or an ordinary reply status with its usual
//     classification. No collocated outcome is ambiguous, because the
//     request never leaves the address space.
//
// Replies are fabricated as wire.Message values, so transact and Invoke
// handle statuses, retries and failover identically for collocated and
// remote attempts. The fabricated frame and the server-side call are both
// embedded in the ClientCall rather than drawn from the shared pools: a
// sync.Pool Get/Put pair costs more than the entire skeleton dispatch at
// this timescale, and the embedded server call's encoder buffer doubles as
// the reply body (zero copy), naturally staying valid until Release.
//
// Collocated dispatches are deliberately not tracked by reqWG (Shutdown's
// drain): registration takes o.mu per call, which the ~150ns budget cannot
// afford, and the drain exists to protect replies crossing connections that
// Shutdown is about to close — a collocated reply crosses nothing. The
// fast path is withdrawn (localEP cleared) before Shutdown begins closing,
// so late collocated calls fail over to the wire path and fail like remote
// callers of a dying server.

// isCollocated reports whether ref targets this ORB's own published
// endpoint while the fast path is eligible: one atomic pointer load and two
// string compares on the hot path, nil (one load) for every ORB that never
// enabled CollocateFast.
func (o *ORB) isCollocated(ref ObjectRef) bool {
	ep := o.localEP.Load()
	return ep != nil && ref.Addr == ep.addr && ref.Proto == ep.proto
}

// dispatchCollocated runs one invocation attempt against a servant in this
// address space, on the caller's goroutine. Its contract matches
// ClientCall.attempt: a reply message (possibly carrying a failure status
// for transact to interpret), or a classified error.
func (o *ORB) dispatchCollocated(c *ClientCall, refStr string, oneway bool) (*wire.Message, failureClass, error) {
	atomic.AddUint64(&o.stats.CollocatedCalls, 1)
	atomic.AddUint64(&o.stats.RequestsServed, 1)

	var deadline time.Time
	if d := c.callTimeout(); d > 0 {
		deadline = time.Now().Add(d)
	}
	switch o.adm.acquire(deadline) {
	case admitShed:
		if oneway {
			return nil, failNone, nil // shed silently, like the remote path
		}
		return c.collocReply(wire.StatusOverloaded, "orb: admission queue full"), failNone, nil
	case admitExpired:
		if oneway {
			return nil, failNone, nil
		}
		return c.collocReply(wire.StatusDeadlineExceeded, "orb: deadline expired before dispatch"), failNone, nil
	}
	defer o.adm.release()

	// Servant resolution, memoized on the call across pooled reuse: valid
	// while the same ORB still has the same servant generation (Unexport
	// bumps it) and routing still lands on the same target string.
	gen := o.servantGen.Load()
	s := c.collocSrv
	if s == nil || c.collocORB != o || c.collocGen != gen || c.collocStr != refStr {
		var err error
		s, err = o.lookupServant(refStr)
		if err != nil {
			// Unlike a remote StatusUnknownObject reply, this miss is
			// classified safe: the servant is locally known to be gone and
			// nothing was dispatched, so a replica-routed call may fail over
			// immediately.
			return nil, failSafe, fmt.Errorf("orb: collocated dispatch: %w", err)
		}
		c.collocSrv, c.collocORB, c.collocGen, c.collocStr = s, o, gen, refStr
		c.collocHandler = nil
	}

	// The client encoder's bytes through a server decoder: the same deep
	// copy of in-parameters a remote servant would see.
	sc := &c.colloc
	if sc.orb == o {
		// Repeat dispatch on the same ORB: the embedded call's codec pair is
		// known-matching (an ORB's protocol never changes), so skip
		// fillServerCall's interface comparison and just reset.
		sc.enc.Reset()
		sc.dec.Reset(c.enc.Bytes())
		sc.method, sc.oneway = c.method, oneway
	} else {
		o.fillServerCall(sc, c.method, oneway, c.enc.Bytes())
	}
	sc.deadline = deadline
	var err error
	if o.hasServerInts() {
		sc.ctx = ServerContext{TargetRef: refStr, TypeID: s.typeID, Method: c.method, Oneway: oneway, Deadline: deadline}
		err = o.runServerChain(&sc.ctx, func() error { return c.dispatchMemoized(s, sc) })
	} else {
		err = c.dispatchMemoized(s, sc)
	}
	if oneway {
		return nil, failNone, nil
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return c.collocReply(wire.StatusDeadlineExceeded, "orb: deadline exceeded during dispatch"), failNone, nil
	}
	switch {
	case err == nil:
		// The reply body views the embedded server call's encoder buffer —
		// no copy; the view stays valid until Release (or the next
		// collocated dispatch on this call, which comes strictly later).
		r := c.collocReply(wire.StatusOK, "")
		r.Body = sc.enc.Bytes()
		return r, failNone, nil
	case errors.Is(err, ErrUnknownMethod):
		return c.collocReply(wire.StatusUnknownMethod, err.Error()), failNone, nil
	default:
		status := wire.StatusSystemError
		if _, ok := err.(UserError); ok {
			status = wire.StatusUserException
		}
		return c.collocReply(status, err.Error()), failNone, nil
	}
}

// dispatchMemoized is dispatchMethod with the handler walk memoized on the
// call: the servant memo's guard already established that s is current, and
// a registered handler never changes, so a repeat of the same method skips
// the table recursion. Misses are not memoized — they take the ordinary
// dispatch-miss accounting every time, like the wire path.
func (c *ClientCall) dispatchMemoized(s *servant, sc *ServerCall) error {
	h := c.collocHandler
	if h == nil || c.collocMethod != c.method {
		var ok bool
		h, ok = s.table.resolve(c.method, s.table.strategy)
		if !ok {
			atomic.AddUint64(&c.orb.stats.DispatchMisses, 1)
			return &errNotDispatched{typeID: s.typeID, method: c.method}
		}
		c.collocHandler, c.collocMethod = h, c.method
	}
	return h(sc)
}

// collocReply fabricates a reply frame in the call's embedded message so the
// collocated path's outcomes flow through exactly the status handling the
// wire path uses. The frame is Static: FreeMessage call sites along that
// shared path release it without pooling a struct the call owns.
func (c *ClientCall) collocReply(status wire.ReplyStatus, errMsg string) *wire.Message {
	c.collocMsg = wire.Message{Type: wire.MsgReply, Status: status, ErrMsg: errMsg, Static: true}
	return &c.collocMsg
}
