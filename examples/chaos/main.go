// Liveness under silent failure: keepalive eviction and hedged requests
// against a deterministically chaotic network.
//
// The fault-tolerance example (examples/faulttolerance) covers loud
// failures — errors, dropped connections, dead endpoints. This one covers
// the failures that make no sound: transport.ChaosTransport swallows
// sends (Send still returns nil), blackholes endpoints (outbound
// swallowed, inbound discarded, dials keep succeeding) and adds latency,
// all deterministically from a seed so every run replays.
//
// Three scenes:
//
//  1. A multiplexed connection goes dark mid-conversation. Nothing
//     errors — only the keepalive prober notices, evicts the stuck
//     connection, and the caller fails over to a fresh one.
//  2. A server whose every 4th dispatch stalls. Hedged requests cap the
//     tail: the duplicate's fast reply wins while the stalled primary is
//     drained in the background.
//  3. The full crucible: calls run *through* a blackhole-and-heal cycle
//     with retry + keepalive + hedging stacked, and every idempotent
//     call completes.
//
// Run it with:
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/demo"
	"repro/internal/gen/media"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	scene1StuckConnEvicted()
	scene2HedgedTail()
	scene3BlackholeAndHeal()
}

// chaoticPair starts a demo session server and a chaos-wrapped client over a
// shared in-process transport. Only the client dials through chaos: the
// server listens on the inner transport directly.
func chaoticPair(seed int64, tweak func(*orb.Options)) (*orb.ORB, orb.ObjectRef, media.HdSession, *transport.ChaosTransport, func()) {
	inner := transport.NewInproc(wire.Text)
	server, ref, _, err := demo.Serve(orb.Options{
		Protocol: wire.Text, Transport: inner, ListenAddr: ":0",
		MaxConcurrentPerConn: 8,
	}, "chaotic")
	if err != nil {
		log.Fatal(err)
	}
	chaos := transport.NewChaosTransport(inner, seed)
	opts := orb.Options{Protocol: wire.Text, Transport: chaos}
	if tweak != nil {
		tweak(&opts)
	}
	client := demo.Connect(opts)
	obj, err := client.Resolve(ref)
	if err != nil {
		log.Fatal(err)
	}
	cleanup := func() {
		client.Shutdown()
		server.Shutdown()
	}
	return client, ref, obj.(media.HdSession), chaos, cleanup
}

func scene1StuckConnEvicted() {
	fmt.Println("=== scene 1: keepalive evicts a silently stuck connection ===")
	client, ref, session, chaos, cleanup := chaoticPair(7, func(o *orb.Options) {
		o.Multiplex = true
		o.Negotiate = true
		o.KeepaliveInterval = 10 * time.Millisecond // stuck after 3 silent intervals
		o.CallTimeout = 2 * time.Second
		o.Retry = orb.RetryPolicy{
			MaxAttempts: 10,
			Backoff:     10 * time.Millisecond,
			Idempotent:  func(string) bool { return true },
		}
	})
	defer cleanup()

	if _, err := session.GetName(); err != nil {
		log.Fatal(err)
	}

	// The network to the server goes completely dark: sends keep
	// "succeeding", nothing comes back, no goroutine sees an error.
	chaos.Blackhole(ref.Addr)
	time.Sleep(120 * time.Millisecond) // several unanswered ping intervals
	chaos.Heal(ref.Addr)

	// The prober evicted the stuck conn while we slept; this call rides a
	// fresh connection without waiting out any deadline.
	start := time.Now()
	if _, err := session.GetName(); err != nil {
		log.Fatalf("call after heal failed: %v", err)
	}
	mst := client.MuxStats()
	fmt.Printf("call after heal took %v; pings=%d pongs=%d stuck conns evicted=%d\n\n",
		time.Since(start).Round(time.Millisecond), mst.Pings, mst.Pongs, mst.StuckEvicted)
}

func scene2HedgedTail() {
	fmt.Println("=== scene 2: hedging caps a slow server's tail ===")
	inner := transport.NewInproc(wire.Text)
	server, ref, _, err := demo.Serve(orb.Options{
		Protocol: wire.Text, Transport: inner, ListenAddr: ":0",
		MaxConcurrentPerConn: 8,
	}, "bimodal")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()
	// Every 4th dispatch stalls 200ms before its reply: an occasional GC
	// pause or slow disk hit, not a failure anything can detect.
	var dispatches atomic.Uint64
	server.AddServerInterceptor(func(_ *orb.ServerContext, handle func() error) error {
		err := handle()
		if dispatches.Add(1)%4 == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return err
	})

	client := demo.Connect(orb.Options{
		Protocol: wire.Text, Transport: inner,
		Multiplex:   true,
		CallTimeout: 2 * time.Second,
		Retry:       orb.RetryPolicy{Idempotent: func(string) bool { return true }},
		// A hedge is a duplicate execution: only idempotent-declared
		// methods (above) are eligible. Delay ~ the normal p99.
		Hedge: orb.HedgePolicy{Delay: 20 * time.Millisecond, MaxHedges: 1},
	})
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		log.Fatal(err)
	}
	session := obj.(media.HdSession)

	var worst time.Duration
	start := time.Now()
	const calls = 16
	for i := 0; i < calls; i++ {
		s := time.Now()
		if _, err := session.GetName(); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(s); d > worst {
			worst = d
		}
	}
	st := client.Stats()
	fmt.Printf("%d calls in %v, worst %v (stall is 200ms); hedges=%d wins=%d\n\n",
		calls, time.Since(start).Round(time.Millisecond), worst.Round(time.Millisecond),
		st.Hedges, st.HedgeWins)
}

func scene3BlackholeAndHeal() {
	fmt.Println("=== scene 3: calling straight through a partition ===")
	client, ref, session, chaos, cleanup := chaoticPair(99, func(o *orb.Options) {
		o.Multiplex = true
		o.Negotiate = true
		o.KeepaliveInterval = 10 * time.Millisecond
		o.CallTimeout = 300 * time.Millisecond
		o.Retry = orb.RetryPolicy{
			MaxAttempts: 20,
			Backoff:     5 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			Idempotent:  func(string) bool { return true },
		}
		o.Hedge = orb.HedgePolicy{Delay: 60 * time.Millisecond, MaxHedges: 1}
	})
	defer cleanup()

	// Partition mid-burst: calls issued during the blackhole silently
	// stall, get their connection evicted by keepalive, and retry onto a
	// fresh conn once the network heals. Nothing surfaces to the caller.
	done := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		chaos.Blackhole(ref.Addr)
		time.Sleep(100 * time.Millisecond)
		chaos.Heal(ref.Addr)
		close(done)
	}()

	failures := 0
	const calls = 40
	for i := 0; i < calls; i++ {
		if _, err := session.GetName(); err != nil {
			failures++
		}
		time.Sleep(3 * time.Millisecond) // pace the burst across the partition
	}
	<-done
	cst := chaos.Stats()
	mst := client.MuxStats()
	fmt.Printf("%d calls, %d failures; chaos swallowed %d frames, discarded %d; evictions=%d retries=%d\n",
		calls, failures, cst.Swallowed, cst.Discarded, mst.StuckEvicted, client.Stats().Retries)
	if failures > 0 {
		log.Fatalf("%d calls failed despite the liveness layer", failures)
	}
}
