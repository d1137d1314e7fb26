package orb

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tickConsumer is a hand-wired event consumer servant for one "tick" event
// (what a generated consumer skeleton would register). With wedge set, the
// FIRST delivery blocks until the channel closes — the deliberately stalled
// consumer of the torture test; later deliveries pass straight through.
type tickConsumer struct {
	got atomic.Uint64
	// maxSeq is the highest sequence number delivered so far. Not "the
	// last": with MaxConcurrentPerConn > 1 the broker admits consecutive
	// publishes, and a consumer ORB runs consecutive deliveries, on
	// different workers, so the final two events may complete in either
	// order — a last-writer-wins field then settles one short of the end
	// and a test waiting for the end times out under load.
	maxSeq atomic.Int64
	wedge  chan struct{}
	wedged atomic.Bool
}

const tickConsumerTypeID = "IDL:test/TickConsumer:1.0"

func newTickTable(impl *tickConsumer) *MethodTable {
	t := NewMethodTable(tickConsumerTypeID)
	t.Register("tick", func(c *ServerCall) error {
		seq, err := c.GetLong()
		if err != nil {
			return err
		}
		if impl.wedge != nil && !impl.wedged.Swap(true) {
			<-impl.wedge
		}
		for cur := impl.maxSeq.Load(); int64(seq) > cur && !impl.maxSeq.CompareAndSwap(cur, int64(seq)); {
			cur = impl.maxSeq.Load()
		}
		impl.got.Add(1)
		return nil
	})
	return t
}

// publishTick publishes one event: an ordinary oneway invocation of the
// event operation on the channel's broker reference — exactly what a
// generated publisher stub emits.
func publishTick(t testing.TB, o *ORB, broker ObjectRef, seq int32) {
	t.Helper()
	c, err := o.NewCall(broker, "tick")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	c.PutLong(seq)
	if err := c.InvokeOneway(); err != nil {
		t.Fatal(err)
	}
}

// channelLedger asserts one subscription's conservation law.
func channelLedger(t *testing.T, label string, st events.Stats) {
	t.Helper()
	sum := st.Delivered + st.Dropped + st.Coalesced + st.Undelivered + st.Discarded
	if st.Enqueued != sum {
		t.Fatalf("%s: enqueued %d != delivered %d + dropped %d + coalesced %d + undelivered %d + discarded %d",
			label, st.Enqueued, st.Delivered, st.Dropped, st.Coalesced, st.Undelivered, st.Discarded)
	}
}

// TestChannelPubSub runs the full path end to end: a channel on a broker
// ORB, one remote consumer (own ORB, events ride the wire) and one
// collocated consumer (direct dispatch), a separate publisher, and
// unsubscribe semantics.
func TestChannelPubSub(t *testing.T) {
	inproc := transport.NewInproc(wire.Text)
	mk := func() Options {
		return Options{Protocol: wire.Text, Transport: inproc, ListenAddr: ":0"}
	}
	broker := New(mk())
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	defer broker.Shutdown()
	ch, err := broker.CreateChannel("telemetry", ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	name, brokerRef, err := ParseChannelRef(ch.Ref())
	if err != nil || name != "telemetry" {
		t.Fatalf("channel ref %q: name %q, err %v", ch.Ref(), name, err)
	}

	cons := New(mk())
	if err := cons.Start(); err != nil {
		t.Fatal(err)
	}
	defer cons.Shutdown()
	remote := &tickConsumer{}
	rref, err := cons.Export(remote, newTickTable(remote))
	if err != nil {
		t.Fatal(err)
	}
	rid, err := cons.Subscribe(ch.Ref(), rref.String(), SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	local := &tickConsumer{}
	lref, err := broker.Export(local, newTickTable(local))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Subscribe(ch.Ref(), lref.String(), SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if ch.Subscribers() != 2 {
		t.Fatalf("subscribers = %d, want 2", ch.Subscribers())
	}

	pub := New(mk()) // pure client
	defer pub.Shutdown()
	const first = 20
	for i := 0; i < first; i++ {
		publishTick(t, pub, brokerRef, int32(i))
	}
	waitFor(t, func() bool { return remote.got.Load() == first && local.got.Load() == first })
	if remote.maxSeq.Load() != first-1 || local.maxSeq.Load() != first-1 {
		t.Fatalf("highest seq remote %d local %d, want %d", remote.maxSeq.Load(), local.maxSeq.Load(), first-1)
	}

	// Unsubscribe the remote consumer; only the collocated one keeps
	// receiving.
	ok, err := cons.Unsubscribe(ch.Ref(), rid)
	if err != nil || !ok {
		t.Fatalf("Unsubscribe = %v, %v", ok, err)
	}
	for i := first; i < first+5; i++ {
		publishTick(t, pub, brokerRef, int32(i))
	}
	waitFor(t, func() bool { return local.got.Load() == first+5 })
	if remote.got.Load() != first {
		t.Fatalf("unsubscribed consumer still received events: %d", remote.got.Load())
	}

	st := ch.Stats()
	if st.Published != first+5 {
		t.Fatalf("published %d, want %d", st.Published, first+5)
	}
	channelLedger(t, "channel", st)
}

// TestChannelSubscribeValidation covers the management surface's error
// paths: wrong channel name, bad consumer reference, bad policy, transport
// mismatch, and an unknown unsubscribe id.
func TestChannelSubscribeValidation(t *testing.T) {
	inproc := transport.NewInproc(wire.Text)
	broker := New(Options{Protocol: wire.Text, Transport: inproc, ListenAddr: ":0"})
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	defer broker.Shutdown()
	ch, err := broker.CreateChannel("telemetry", ChannelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	_, brokerRef, _ := ParseChannelRef(ch.Ref())
	wrongRef, err := FormatChannelRef("other", brokerRef)
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{Protocol: wire.Text, Transport: inproc})
	defer client.Shutdown()
	goodConsumer := "@inproc:nowhere#1#IDL:test/TickConsumer:1.0"
	if _, err := client.Subscribe(wrongRef, goodConsumer, SubscribeOptions{}); err == nil {
		t.Error("subscribe under the wrong channel name succeeded")
	}
	if _, err := client.Subscribe(ch.Ref(), "not a ref", SubscribeOptions{}); err == nil {
		t.Error("subscribe with a bad consumer reference succeeded")
	}
	if _, err := client.Subscribe(ch.Ref(), goodConsumer, SubscribeOptions{Policy: events.DropPolicy(7)}); err == nil {
		t.Error("subscribe with an unknown policy succeeded")
	}
	if _, err := client.Subscribe(ch.Ref(), "@tcp:h:1#1#IDL:test/TickConsumer:1.0", SubscribeOptions{}); err == nil {
		t.Error("subscribe with a transport-mismatched consumer succeeded")
	}
	if ok, err := client.Unsubscribe(ch.Ref(), 12345); err != nil || ok {
		t.Errorf("unsubscribe of unknown id = %v, %v; want false, nil", ok, err)
	}
	if ch.Subscribers() != 0 {
		t.Fatalf("failed subscriptions leaked: %d live", ch.Subscribers())
	}
}

// TestChannelSlowSubscriberTorture is the robustness gauntlet: 1 publisher,
// 32 subscribers spread over two consumer ORBs plus collocated ones, one
// deliberately wedged consumer, and a mid-stream connection kill (one
// consumer ORB aborts). The publisher must never block, every subscriber's
// ledger must balance exactly, and the stream to healthy subscribers must
// keep flowing.
func TestChannelSlowSubscriberTorture(t *testing.T) {
	inproc := transport.NewInproc(wire.CDR)
	mk := func() Options {
		return Options{
			Protocol:  wire.CDR,
			Transport: inproc,
			// Concurrent dispatch so the wedged handler occupies one
			// worker without stalling conn-mates' deliveries.
			MaxConcurrentPerConn: 4,
			ListenAddr:           ":0",
		}
	}
	broker := New(mk())
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	defer broker.Shutdown()
	ch, err := broker.CreateChannel("torture", ChannelOptions{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	_, brokerRef, _ := ParseChannelRef(ch.Ref())

	consA := New(mk()) // survives; hosts the wedged consumer
	if err := consA.Start(); err != nil {
		t.Fatal(err)
	}
	consB := New(mk()) // killed mid-stream
	if err := consB.Start(); err != nil {
		t.Fatal(err)
	}

	const (
		subsA  = 12 // on consA, one of them wedged
		subsB  = 12 // on consB, killed mid-stream
		subsL  = 8  // collocated with the broker
		total  = 400
		atKill = total / 2
	)
	wedge := make(chan struct{})
	var consumers []*tickConsumer
	var ids []uint64
	addSub := func(host *ORB, c *tickConsumer) {
		t.Helper()
		ref, err := host.Export(c, newTickTable(c))
		if err != nil {
			t.Fatal(err)
		}
		id, err := host.Subscribe(ch.Ref(), ref.String(), SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		consumers = append(consumers, c)
		ids = append(ids, id)
	}
	for i := 0; i < subsA; i++ {
		c := &tickConsumer{}
		if i == 0 {
			c.wedge = wedge
		}
		addSub(consA, c)
	}
	for i := 0; i < subsB; i++ {
		addSub(consB, &tickConsumer{})
	}
	for i := 0; i < subsL; i++ {
		addSub(broker, &tickConsumer{})
	}
	if ch.Subscribers() != subsA+subsB+subsL {
		t.Fatalf("subscribers = %d", ch.Subscribers())
	}

	pub := New(mk())
	defer pub.Shutdown()
	start := time.Now()
	for i := 0; i < total; i++ {
		if i == atKill {
			consB.Abort() // mid-stream connection kill, no drain
		}
		publishTick(t, pub, brokerRef, int32(i))
	}
	// "Never blocks" made concrete: 400 oneway publishes with a wedged
	// consumer and a dead ORB in the fan-out must complete in wall-clock
	// time bounded by the wire work alone, nowhere near any delivery
	// timeout. The generous bound only catches a publisher actually parked
	// on a subscriber.
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("publishing took %v — publisher blocked on a subscriber", took)
	}

	// Healthy subscribers keep receiving to the end of the stream.
	healthyA := consumers[1] // on consA, not wedged
	waitFor(t, func() bool { return healthyA.maxSeq.Load() == total-1 })
	for i := subsA + subsB; i < subsA+subsB+subsL; i++ {
		c := consumers[i]
		waitFor(t, func() bool { return c.maxSeq.Load() == total-1 })
	}

	// Unblock the wedged consumer so consA can drain and shut down.
	close(wedge)

	// Every ledger balances exactly once deliveries settle: each admitted
	// event is delivered, dropped, coalesced, undelivered, or discarded —
	// nothing vanishes, even for the wedged subscriber and the ones whose
	// ORB died mid-stream. "Settled" includes admission: publishes are
	// oneway and the broker fans them out on concurrent workers, so the
	// last event reaching the healthy subscribers above does not mean the
	// one before it has been admitted everywhere yet.
	for i, id := range ids {
		id := id
		waitFor(t, func() bool {
			st, ok := ch.SubscriberStats(id)
			return ok && st.Enqueued == total &&
				st.Enqueued == st.Delivered+st.Dropped+st.Coalesced+st.Undelivered+st.Discarded
		})
		st, _ := ch.SubscriberStats(id)
		switch {
		case i == 0: // wedged: bounded queue must have dropped
			if st.Dropped == 0 {
				t.Errorf("wedged subscriber dropped nothing across %d events", total)
			}
		case i >= subsA && i < subsA+subsB: // on the killed ORB
			if st.Undelivered == 0 {
				t.Errorf("subscriber %d on the killed ORB reports no undelivered events", i)
			}
		default: // healthy: nothing undelivered
			if st.Undelivered != 0 {
				t.Errorf("healthy subscriber %d has %d undelivered", i, st.Undelivered)
			}
		}
		channelLedger(t, "subscriber", st)
	}
	channelLedger(t, "channel", ch.Stats())
	consA.Shutdown()
}
