package orb

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/wire"
)

// This file wires the events.Broker fan-out core into the ORB as a channel
// servant: CreateChannel exports a broker object whose dispatch table routes
// the two management operations (_subscribe, _unsubscribe) normally and
// treats EVERY other operation name as an event publish via the table's
// fallback handler — event names are open-ended, declared by the publisher's
// IDL, not by the broker. Publishers are ordinary generated stubs invoking
// oneway operations on the channel reference; the broker re-fans each
// request body out encode-once to all subscribers. See DESIGN.md §14.

// ChannelTypeID is the repository ID of the broker servant every channel
// exports.
const ChannelTypeID = "IDL:repro/events/Channel:1.0"

// Management operation names. The leading underscore keeps them out of the
// IDL operation namespace (identifiers cannot start with '_'), so they can
// never collide with a declared event.
const (
	opSubscribe   = "_subscribe"
	opUnsubscribe = "_unsubscribe"
)

// ChannelOptions tunes a channel's delivery defaults; per-subscription
// options (SubscribeOptions) override them. Connection batching follows the
// ORB's Coalesce* options.
type ChannelOptions struct {
	// QueueDepth is the default per-subscriber queue bound (64).
	QueueDepth int
	// Policy is the default full-queue policy (events.DropOldest).
	Policy events.DropPolicy
}

// SubscribeOptions tunes one subscription; zero fields inherit the
// channel's defaults.
type SubscribeOptions struct {
	QueueDepth int
	Policy     events.DropPolicy
}

// Channel is one event channel hosted by this ORB: a named broker servant
// plus its delivery core.
type Channel struct {
	orb    *ORB
	name   string
	ref    string // stringified channel reference (@chan|name|brokerRef)
	broker *events.Broker
	impl   *channelServant
}

// channelServant is the broker's exported identity — a unique pointer per
// channel, so the skeleton cache keys each channel separately.
type channelServant struct {
	ch *Channel
}

// CreateChannel exports a new event channel on this ORB and returns it. The
// returned channel's Ref is what publishers and subscribers exchange. The
// ORB must have been started.
func (o *ORB) CreateChannel(name string, opts ChannelOptions) (*Channel, error) {
	ch := &Channel{orb: o, name: name}
	ch.impl = &channelServant{ch: ch}
	ch.broker = events.NewBroker(events.Config{
		QueueDepth: opts.QueueDepth,
		Policy:     opts.Policy,
		Dial:       o.trans.Dial,
	})
	table := NewMethodTable(ChannelTypeID)
	table.Register(opSubscribe, ch.handleSubscribe)
	table.Register(opUnsubscribe, ch.handleUnsubscribe)
	table.SetFallback(ch.handlePublish)
	ref, err := o.Export(ch.impl, table)
	if err != nil {
		ch.broker.Close()
		return nil, err
	}
	ch.ref, err = FormatChannelRef(name, ref)
	if err != nil {
		o.Unexport(ch.impl)
		ch.broker.Close()
		return nil, err
	}
	return ch, nil
}

// Name returns the channel's name.
func (ch *Channel) Name() string { return ch.name }

// Ref returns the stringified channel reference publishers and subscribers
// use to find this channel.
func (ch *Channel) Ref() string { return ch.ref }

// Stats returns the channel's delivery ledger.
func (ch *Channel) Stats() events.Stats { return ch.broker.Stats() }

// SubscriberStats returns one subscription's ledger.
func (ch *Channel) SubscriberStats(id uint64) (events.Stats, bool) {
	return ch.broker.SubscriberStats(id)
}

// Subscribers returns the live subscription count.
func (ch *Channel) Subscribers() int { return ch.broker.Subscribers() }

// Close withdraws the channel: the servant is unexported (publishes start
// failing with unknown object) and the broker shuts down, discarding queued
// events and closing subscriber connections.
func (ch *Channel) Close() {
	ch.orb.Unexport(ch.impl)
	ch.broker.Close()
}

// handlePublish is the table's fallback: any operation that is not
// _subscribe/_unsubscribe is an event, fanned out under its operation name.
// The hot path re-uses the request frame's lease-backed body directly — the
// broker retain-shares it per subscriber, so nothing is copied or
// re-encoded no matter how many subscribers are attached.
func (ch *Channel) handlePublish(c *ServerCall) error {
	if m := c.Request(); m != nil {
		ch.broker.Publish(c.Method(), m)
		return nil
	}
	// Collocated publisher: no request frame exists, only the client
	// encoder's bytes. Wrap them in a caller-owned frame; Publish leases
	// the body (one copy) and each subscriber retains that lease, so the
	// encoder's buffer is not referenced once this returns.
	tmp := &wire.Message{Static: true, Body: c.RequestBody()}
	ch.broker.Publish(c.Method(), tmp)
	wire.FreeMessage(tmp)
	return nil
}

// handleSubscribe services _subscribe(name, consumerRef, queueDepth,
// policy) -> id. A consumer collocated with the broker's ORB is registered
// for direct dispatch (no connection); anything else gets the shared
// coalesced connection to its address space.
func (ch *Channel) handleSubscribe(c *ServerCall) error {
	name, err := c.GetString()
	if err != nil {
		return err
	}
	if name != ch.name {
		return fmt.Errorf("orb: channel %q does not serve %q", ch.name, name)
	}
	refStr, err := c.GetString()
	if err != nil {
		return err
	}
	depth, err := c.GetLong()
	if err != nil {
		return err
	}
	policy, err := c.GetLong()
	if err != nil {
		return err
	}
	if policy != int32(events.DropOldest) && policy != int32(events.CoalesceByKey) {
		return fmt.Errorf("orb: channel %q: unknown drop policy %d", ch.name, policy)
	}
	ref, err := ParseRef(refStr)
	if err != nil || ref.IsNil() {
		return fmt.Errorf("orb: channel %q: bad consumer reference %q", ch.name, refStr)
	}
	o := ch.orb
	so := events.SubOptions{QueueDepth: int(depth), Policy: events.DropPolicy(policy)}
	var id uint64
	if ref.Proto == o.trans.Name() && ref.Addr == o.Addr() {
		// Collocated consumer: deliver by dispatching straight into the
		// local servant on the subscriber's worker goroutine.
		id, err = ch.broker.SubscribeLocal(refStr, o.deliverLocal, so)
	} else {
		if ref.Proto != o.trans.Name() {
			return fmt.Errorf("orb: channel %q cannot reach consumer over %q (broker speaks %q)",
				ch.name, ref.Proto, o.trans.Name())
		}
		id, err = ch.broker.SubscribeRemote(refStr, ref.Addr, so)
	}
	if err != nil {
		return err
	}
	c.PutULongLong(id)
	return nil
}

// handleUnsubscribe services _unsubscribe(name, id) -> bool.
func (ch *Channel) handleUnsubscribe(c *ServerCall) error {
	name, err := c.GetString()
	if err != nil {
		return err
	}
	if name != ch.name {
		return fmt.Errorf("orb: channel %q does not serve %q", ch.name, name)
	}
	id, err := c.GetULongLong()
	if err != nil {
		return err
	}
	c.PutBool(ch.broker.Unsubscribe(id))
	return nil
}

// deliverLocal hands one event message to a servant exported by this ORB —
// the events.Deliver callback for collocated subscribers. The message is the
// broker worker's to free; dispatch borrows it for the duration of the call.
func (o *ORB) deliverLocal(m *wire.Message) error {
	s, err := o.lookupServant(m.TargetRef)
	if err != nil {
		return err
	}
	sc := o.getServerCall(m)
	defer putServerCall(sc)
	return o.dispatchMethod(s, m.Method, sc)
}

// Subscribe attaches a consumer to a channel: chanRef is the channel's
// stringified reference, consumerRef the stringified reference of an
// exported object whose dispatch table carries the channel's event
// operations (a generated consumer skeleton). It returns the subscription
// id for Unsubscribe. The management call is a normal two-way invocation on
// the broker servant, so it works collocated or remote.
func (o *ORB) Subscribe(chanRef, consumerRef string, opts SubscribeOptions) (uint64, error) {
	name, broker, err := ParseChannelRef(chanRef)
	if err != nil {
		return 0, err
	}
	c, err := o.NewCall(broker, opSubscribe)
	if err != nil {
		return 0, err
	}
	defer c.Release()
	c.PutString(name)
	c.PutString(consumerRef)
	c.PutLong(int32(opts.QueueDepth))
	c.PutLong(int32(opts.Policy))
	if err := c.Invoke(); err != nil {
		return 0, err
	}
	return c.GetULongLong()
}

// Unsubscribe detaches a subscription made with Subscribe. It reports
// whether the broker still knew the id.
func (o *ORB) Unsubscribe(chanRef string, id uint64) (bool, error) {
	name, broker, err := ParseChannelRef(chanRef)
	if err != nil {
		return false, err
	}
	c, err := o.NewCall(broker, opUnsubscribe)
	if err != nil {
		return false, err
	}
	defer c.Release()
	c.PutString(name)
	c.PutULongLong(id)
	if err := c.Invoke(); err != nil {
		return false, err
	}
	return c.GetBool()
}
