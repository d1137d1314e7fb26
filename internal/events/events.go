// Package events implements the delivery core of typed event channels: an
// encode-once, fan-out-many broker that shares a single lease-backed payload
// across every subscriber (wire.Message.ShareBodyInto), routes all deliveries
// bound for one connection through a coalescing writer so a publish burst
// becomes one gathered write per connection regardless of subscriber count,
// and isolates slow consumers behind bounded per-subscriber queues with
// drop-oldest or coalesce-by-key admission — a stalled subscriber never
// backpressures the publisher or the subscribers sharing its connection.
// See DESIGN.md §14.
//
// The package sits below the ORB (which builds channel servants and the
// subscribe protocol on top of it) and above the transport: it deals only in
// wire messages, dial functions, and delivery callbacks.
package events

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Deliver hands one event message to a collocated subscriber. The message is
// only valid for the duration of the call; an implementation keeping the body
// must RetainBody. A non-nil error counts the event as undelivered.
type Deliver func(m *wire.Message) error

// DropPolicy selects what a full subscriber queue does with the overflow.
// Either way admission never blocks: the publisher's cost per subscriber is
// one enqueue, no matter how wedged the consumer is.
type DropPolicy int

const (
	// DropOldest displaces the oldest queued event to admit the new one —
	// the subscriber sees the freshest window of the stream.
	DropOldest DropPolicy = iota
	// CoalesceByKey replaces a queued event carrying the same key (the
	// event operation name) with the new one, so a lagging subscriber sees
	// the latest value per event kind instead of a stale backlog; distinct
	// keys fall back to DropOldest when the queue is full.
	CoalesceByKey
)

// String names the policy ("drop-oldest", "coalesce").
func (p DropPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case CoalesceByKey:
		return "coalesce"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ErrClosed is returned for operations on a closed broker.
var ErrClosed = errors.New("events: broker closed")

// errDialBackoff reports a delivery attempted while the endpoint's redial
// window was still closed; the event counts as undelivered.
var errDialBackoff = errors.New("events: endpoint redial backed off")

// Config tunes a Broker. The zero value of every field selects a default;
// Dial is required only when remote subscribers are added.
type Config struct {
	// QueueDepth is the default per-subscriber queue bound (64).
	QueueDepth int
	// Policy is the default per-subscriber admission policy.
	Policy DropPolicy
	// Dial opens a connection to a subscriber's address space. The broker
	// shares one connection (and one coalescing writer) among all
	// subscribers at the same address.
	Dial func(addr string) (transport.Conn, error)
}

// defaultQueueDepth is the per-subscriber queue bound when Config sets none.
const defaultQueueDepth = 64

// redialInterval rate-limits reconnection attempts to an endpoint whose
// connection died. Deliveries inside the window count as undelivered rather
// than stacking up dials to a gone peer.
const redialInterval = 50 * time.Millisecond

// Stats is a snapshot of a broker's (or one subscriber's) delivery
// accounting. Once a broker is closed and drained the per-subscriber
// invariant holds exactly:
//
//	Enqueued = Delivered + Dropped + Coalesced + Undelivered + Discarded
//
// every admitted event meets exactly one fate.
type Stats struct {
	// Published counts Publish calls (broker-wide; zero in per-subscriber
	// snapshots).
	Published uint64
	// Enqueued counts events admitted to a subscriber queue.
	Enqueued uint64
	// Delivered counts events handed to a consumer (local callback
	// returned nil, or the frame went onto the wire).
	Delivered uint64
	// Dropped counts events displaced from a full queue by DropOldest.
	Dropped uint64
	// Coalesced counts events replaced by a newer same-key event.
	Coalesced uint64
	// Undelivered counts events whose delivery failed (callback error,
	// dead or unreachable endpoint).
	Undelivered uint64
	// Discarded counts events still queued when the subscriber or broker
	// shut down.
	Discarded uint64
}
