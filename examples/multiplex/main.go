// Multiplexed connections: many concurrent callers, one shared connection.
//
// The paper's connection cache (§3.1) binds one connection to each in-flight
// invocation, so a burst of N concurrent callers needs N connections — and
// once the burst passes, most of them are torn down again, only to be
// re-dialed on the next burst. GIOP-style ORBs avoid this by pipelining:
// requests from every caller interleave over one shared connection and the
// RequestID pairs each reply with its caller.
//
// This example fires waves of 32 concurrent calls through both paths over a
// transport whose Dial costs a realistic 300µs, and prints how many
// connections each path opened. With `Multiplex: true` the whole run rides
// one connection; the exclusive pool re-dials every wave. A third run adds
// `CoalesceWrites: true`, batching each wave's requests and replies into
// gathered writes (DESIGN.md §9) — the win over plain multiplexing is
// syscall count, so it is modest over in-process pipes and largest over
// real TCP (EXPERIMENTS.md R3).
//
// Run it with:
//
//	go run ./examples/multiplex
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/demo"
	"repro/internal/gen/media"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	callers  = 32
	waves    = 50
	dialCost = 300 * time.Microsecond
)

// slowDial charges a fixed connection-establishment cost per Dial, standing
// in for TCP handshake + ORB connection setup on a real network.
type slowDial struct {
	transport.Transport
}

func (t slowDial) Dial(addr string) (transport.Conn, error) {
	time.Sleep(dialCost)
	return t.Transport.Dial(addr)
}

func main() {
	fmt.Printf("%d waves of %d concurrent calls, dial cost %v\n\n", waves, callers, dialCost)
	run("exclusive pool", false, false)
	run("multiplexed   ", true, false)
	run("mux+coalesce  ", true, true)
}

func run(label string, mux, coalesce bool) {
	tr := slowDial{transport.NewInproc(wire.CDR)}
	server, ref, _, err := demo.Serve(orb.Options{
		Protocol: wire.CDR, Transport: tr, ListenAddr: ":0",
		MaxConcurrentPerConn: callers,
		// Batch concurrent replies into gathered writes (DESIGN.md §9).
		CoalesceWrites: coalesce,
	}, "shared")
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()

	client := demo.Connect(orb.Options{
		Protocol: wire.CDR, Transport: tr,
		Multiplex: mux,
		// Batch the wave's pipelined requests into gathered writes (at most
		// 64 frames / 256 KiB each). Yield-based accumulation forms the
		// batches without adding wall-clock latency.
		CoalesceWrites: coalesce,
	})
	defer client.Shutdown()
	obj, err := client.Resolve(ref)
	if err != nil {
		log.Fatal(err)
	}
	session := obj.(media.HdSession)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < waves; w++ {
		wg.Add(callers)
		for g := 0; g < callers; g++ {
			go func() {
				defer wg.Done()
				if _, err := session.GetVolume(); err != nil {
					log.Fatal(err)
				}
			}()
		}
		wg.Wait() // burst boundary: every connection goes idle at once
	}
	elapsed := time.Since(start)

	dials := client.PoolStats().Dials
	if mux {
		dials = client.MuxStats().Dials
	}
	fmt.Printf("%s  %5d calls  %4d connections dialed  %8v total  (%v/call)\n",
		label, waves*callers, dials, elapsed.Round(time.Millisecond),
		(elapsed / (waves * callers)).Round(time.Microsecond))
}
