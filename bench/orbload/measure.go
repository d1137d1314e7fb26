package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/transport"
)

// metric is one reported number. Names and units here are the ones
// BENCHMARK.json lists; the tests hold the two together.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clientCounters are the driver-side ORB counters the window's figures
// come from.
type clientCounters struct {
	retries   uint64
	checkouts int // pool hits + misses, or multiplexed calls
	dials     int
}

func (r *rig) clientCounters() clientCounters {
	st, ps, ms := r.client.Stats(), r.client.PoolStats(), r.client.MuxStats()
	return clientCounters{
		retries:   st.Retries,
		checkouts: ps.Hits + ps.Misses + int(st.MuxCalls),
		dials:     ps.Dials + ms.Dials,
	}
}

// window is everything observed over one measured window.
type window struct {
	wl      *workload
	d       time.Duration
	load    *loadStats
	open    openResult
	slices  sliceSet      // per-operation tallies (the consumers' on event workloads)
	lat     hist          // the slices' latencies together
	elapsed time.Duration // from the window's start to its last completion
	// Both processes' CPU time at every slice boundary, each stamped by the
	// process that read it: len(slices.t)+1 samples.
	cliCPU, srvCPU []cpuSample
	backlog        int32  // event workloads: most events any consumer had still to see
	ok             uint64 // operations completed and correct
	failed         uint64
	problem        string // why the run is not correct, if it is not

	cli, srv procSnap // deltas over the window, except MaxRSSKB (a peak)
	cliC     clientCounters
	srvA     serverSnap
	srvB     serverSnap
	// Trace totals over the window, per process; Dials and Open are since
	// the rig started.
	cliT, srvT traceCounts
}

// sampleCPU reads both processes' CPU time at every boundary of ph's slices
// of a window of d starting at start.
func (r *rig) sampleCPU(start time.Time, d time.Duration, ph phase) (cli, srv []cpuSample, err error) {
	cli, srv = make([]cpuSample, ph.slices+1), make([]cpuSample, ph.slices+1)
	for k := range cli {
		at := start.Add(time.Duration(k) * ph.every)
		if k == ph.slices {
			at = start.Add(d)
		}
		time.Sleep(time.Until(at))
		if err := r.ask("cpu", &srv[k]); err != nil {
			return nil, nil, err
		}
		cli[k], _ = takeCPUSample()
	}
	return cli, srv, nil
}

// measure runs the settle phase (thrown away, so the window starts on a heap
// and a scheduler in steady state) and then, on a warm rig, the measured
// window of d cut into slices of every.
func (r *rig) measure(d, settle, every time.Duration) (*window, error) {
	if r.wl.callers > 0 {
		r.runClosed(time.Now(), settle, 0, phaseSettle)
	} else {
		r.runOpen(time.Now().Add(spinMargin), int(settle/r.wl.period), phaseSettle)
	}
	if err := r.quiesce(); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	w := &window{wl: r.wl, d: d}
	var err error
	if w.srvA, err = r.serverSnap(); err != nil {
		return nil, err
	}
	got0, bad0 := r.upcalls()
	cliC := r.clientCounters()
	traceA := r.tr.counts()
	if r.tr != nil {
		r.tr.startSampling()
	}
	cliA := takeProcSnap()

	ph := phaseMeasured(d, every)
	start := time.Now().Add(spinMargin)
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		w.cliCPU, w.srvCPU, cpuErr = r.sampleCPU(start, d, ph)
	}()
	if r.wl.callers > 0 {
		time.Sleep(time.Until(start))
		w.load = r.runClosed(start, d, 0, ph)
	} else {
		w.load, w.open = r.runOpen(start, int(d/r.wl.period), ph)
	}
	<-sampled // the sampler and quiesce share the server's command pipe
	if cpuErr != nil {
		return nil, cpuErr
	}
	if err := r.quiesce(); err != nil {
		w.problem = err.Error()
	}
	cliB := takeProcSnap()
	if w.srvB, err = r.serverSnap(); err != nil {
		return nil, err
	}
	w.cli = procSnap{CPUus: cliB.CPUus - cliA.CPUus, Mallocs: cliB.Mallocs - cliA.Mallocs, MaxRSSKB: cliB.MaxRSSKB}
	w.srv = procSnap{
		CPUus:    w.srvB.Proc.CPUus - w.srvA.Proc.CPUus,
		Mallocs:  w.srvB.Proc.Mallocs - w.srvA.Proc.Mallocs,
		MaxRSSKB: w.srvB.Proc.MaxRSSKB,
	}
	now := r.clientCounters()
	w.cliC = clientCounters{now.retries - cliC.retries, now.checkouts - cliC.checkouts, now.dials - cliC.dials}
	w.cliT, w.srvT = r.tr.counts().sub(traceA), w.srvB.Trace.sub(w.srvA.Trace)

	attempted := w.load.attempted()
	ops := w.load.slices
	if n := uint64(r.wl.subscribers); n > 0 {
		// An operation is one delivery: every publish owes one upcall, in
		// sequence, to every consumer, and the latency is the consumer's.
		attempted *= n
		ops = newSliceSet(start, ph.every, ph.slices)
		for _, c := range r.consumers {
			c.mu.Lock()
			ops.merge(&c.slices)
			if c.backlog > w.backlog {
				w.backlog = c.backlog
			}
			c.mu.Unlock()
		}
		got, bad := r.upcalls()
		if ch := w.srvB.Chan; w.problem == "" && ch.Delivered-w.srvA.Chan.Delivered != got-got0 {
			w.problem = fmt.Sprintf("channel ledger delivered %d events, consumers counted %d",
				ch.Delivered-w.srvA.Chan.Delivered, got-got0)
		}
		w.conclude(ops, attempted, got-got0-(bad-bad0))
	} else {
		w.conclude(ops, attempted, ops.total().lat.n)
	}
	return w, nil
}

// conclude fills in the window's outcome: of attempted operations, the ones
// tallied in ops completed, ok of them correct.
func (w *window) conclude(ops sliceSet, attempted, ok uint64) {
	all := ops.total()
	w.slices, w.lat = ops, all.lat
	w.elapsed = w.d
	if all.last != 0 {
		w.elapsed = time.Unix(0, all.last).Sub(ops.start)
	}
	if ok > attempted {
		ok = attempted
	}
	w.ok, w.failed = ok, attempted-ok
	if w.problem == "" && w.failed > 0 {
		w.problem = fmt.Sprintf("%d of %d operations failed or answered wrong", w.failed, attempted)
	}
}

func (w *window) attempted() uint64 { return w.ok + w.failed }

// sloMisses counts operations that failed or took longer than sloLimit.
func (w *window) sloMisses() uint64 { return w.failed + w.lat.above(int64(sloLimit)) }

// sliceDur is how long slice k lasted: every, but for the last one, which
// also takes what the window has left over.
func (w *window) sliceDur(k int) time.Duration {
	if k == len(w.slices.t)-1 {
		return w.d - time.Duration(k)*w.slices.every
	}
	return w.slices.every
}

// bestSlice computes f (lower is better) for every slice that completed an
// operation and returns the lowest value.
func (w *window) bestSlice(f func(k int, s *tally) float64) float64 {
	best, found := 0.0, false
	for k := range w.slices.t {
		s := &w.slices.t[k]
		if s.lat.n == 0 {
			continue
		}
		if v := f(k, s); !found || v < best {
			best, found = v, true
		}
	}
	return best
}

// opsPerSecond is the completion rate. An open loop's is over the whole
// window, from its start to the last completion: the schedule sets it, and it
// reads the offered rate unless the system ends the window behind. (Rated per
// slice it could only mislead: the backlog a stall leaves drains into the
// next slice and would read as a burst of speed.) A closed loop has no
// backlog to drain — a slice completes no more than the system can do in it —
// and its rate is its latency seen from the other side, so it is the best
// slice's, as the latency is.
func (w *window) opsPerSecond() float64 {
	if w.wl.callers == 0 {
		return ratio(float64(w.ok), w.elapsed.Seconds())
	}
	return -w.bestSlice(func(k int, s *tally) float64 { return -float64(s.lat.n) / w.sliceDur(k).Seconds() })
}

// p50us is the best slice's median latency, in microseconds.
func (w *window) p50us() float64 {
	return w.bestSlice(func(_ int, s *tally) float64 { return s.lat.quantile(0.5) / 1e3 })
}

// cpuPerOp is the best slice's CPU time per operation, both processes, in
// microseconds. Each process's samples carry its own clock's reading, and a
// slice is charged that process's CPU *rate* between its two samples for the
// slice's length: a sample taken late (the sampler is one more goroutine on
// two busy cores, the server's answer comes over a pipe) moves an instant,
// not CPU time from one slice into its neighbour.
func (w *window) cpuPerOp() float64 {
	rate := func(s []cpuSample, k int) float64 {
		return ratio(float64(s[k+1].CPUus-s[k].CPUus), float64(s[k+1].At-s[k].At))
	}
	return w.bestSlice(func(k int, s *tally) float64 {
		return (rate(w.cliCPU, k) + rate(w.srvCPU, k)) * float64(w.sliceDur(k)) / float64(s.lat.n)
	})
}

// wholeWindow describes the timings over the whole window, beside which the
// best slice's can be read: how far apart the two are is how much of the
// window the host (or the code) spent off its best.
func (w *window) wholeWindow() string {
	return fmt.Sprintf("whole window: %.1f ops/s, p50 %.2f us, %.2f cpu-us/op, %d over the %v limit",
		ratio(float64(w.ok), w.elapsed.Seconds()), w.lat.quantile(0.5)/1e3,
		ratio(float64(w.cli.CPUus+w.srv.CPUus), float64(w.ok)), w.sloMisses(), sloLimit)
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. setup is the median set-up time of the run.
//
// The three timings are computed per one-second slice of the window and the
// best slice is reported (except an open loop's rate, see opsPerSecond).
// Whole-window figures would be the plainer choice, and they do not repeat on
// this host: its second-to-second swings (a lone caller does anything from
// 25k to 68k calls/s) come in spells of minutes, so ten runs' whole-window or
// median-slice figures spread by 0.2–0.3 of their median in a bad spell — more
// than any bound the pipeline lets a metric have — where the best slice's
// stay within 0.04–0.16 (bench/README.md has the table). Interference only
// ever slows a slice down, so the best one is the code's own cost: the
// estimator `make bench` uses, for the same reason. What the best slice
// cannot see, a cost that strikes in some seconds and not in others, the
// whole-window slo_ok_ratio is there to catch.
//
// slo_ok_ratio is the share of attempted operations that succeeded within
// sloLimit, over the whole window (closed loops: of their issue; open loops:
// of their due time, so a stall is charged to every operation it delayed).
// It is 1 − slo_miss_ratio because the pipeline's bounds are relative and
// its metrics may not be 0. Counts and sizes are over the whole window too.
func (w *window) endToEnd(setup time.Duration) metrics {
	m := metrics{}
	m.set("setup_s", setup.Seconds(), "s")
	m.set("ops_per_s", w.opsPerSecond(), "1/s")
	m.set("lat_p50_us", w.p50us(), "us")
	m.set("slo_ok_ratio", 1-ratio(float64(w.sloMisses()), float64(w.attempted())), "ratio")
	m.set("cpu_us_per_op", w.cpuPerOp(), "us")
	m.set("allocs_per_op", ratio(float64(w.cli.Mallocs+w.srv.Mallocs), float64(w.ok)), "count")
	m.set("rss_peak_mb", float64(w.cli.MaxRSSKB+w.srv.MaxRSSKB)/1024, "MB")
	return m
}

// replay is the ledger's offline half: each layer's work for this workload's
// operations, priced in isolation.
type replay struct {
	gen                genCost
	encodeNs, decodeNs float64 // per frame
	tcpRTT, inprocRTT  float64
}

func (r *rig) replay() (replay, error) {
	var rp replay
	proto := protocolOf(r.wl.client)
	var err error
	if rp.gen, err = genReplay(r.wl, r.in, proto); err != nil {
		return rp, err
	}
	frames := r.tr.frameSample()
	if rp.encodeNs, rp.decodeNs, err = wireReplay(frames, proto); err != nil {
		return rp, err
	}
	if rp.tcpRTT, err = echoRTT(transport.NewTCP(proto), r.hello.Echo, frames); err != nil {
		return rp, err
	}
	rp.inprocRTT, err = inprocRTT(proto, frames)
	return rp, err
}

// perLayer are the metrics of single layers, from the traced window and the
// replay. untracedP50 is the same workload's median latency with tracing off.
func (w *window) perLayer(rp replay, untracedP50us, buildS float64) metrics {
	m := metrics{}
	ops := float64(w.ok)
	tc := w.cliT.add(w.srvT)
	framesPerOp := ratio(float64(tc.C[cFrames]), ops)

	m.set("gen.marshal_ns", rp.gen.marshalNs, "ns")
	m.set("gen.unmarshal_ns", rp.gen.unmarshalNs, "ns")
	m.set("gen.allocs_per_op", rp.gen.allocs, "count")
	wireEnc, wireDec := rp.encodeNs*framesPerOp, rp.decodeNs*framesPerOp
	m.set("wire.encode_ns", wireEnc, "ns")
	m.set("wire.decode_ns", wireDec, "ns")
	m.set("wire.bytes_per_op", ratio(float64(tc.C[cBytesOut]), ops), "B")

	m.set("transport.tcp_rtt_ns", rp.tcpRTT, "ns")
	m.set("transport.inproc_rtt_ns", rp.inprocRTT, "ns")
	m.set("transport.send_ns", tc.meanNs(spSend), "ns")
	m.set("transport.frames_per_write", ratio(float64(tc.C[cFrames]), float64(tc.C[cWrites])), "ratio")
	m.set("transport.dials", float64(tc.C[cDials]), "count")
	m.set("transport.conns_open", float64(tc.C[cOpen]), "count")
	m.set("transport.pool_hit_ratio", 1-ratio(float64(w.cliC.dials), float64(w.cliC.checkouts)), "ratio")

	dispatch, servant := tc.meanNs(spServerDispatch), tc.meanNs(spServant)
	m.set("orb.client_call_ns", tc.meanNs(spClientCall), "ns")
	m.set("orb.server_dispatch_ns", dispatch, "ns")
	m.set("orb.servant_ns", servant, "ns")
	// Self time is a span minus the children it covers. The server's
	// dispatch always covers its servant; the client's call covers its own
	// Send and Recv only on the exclusive path (multiplexed connections
	// read and batch-write on other goroutines), so elsewhere it is 0.
	m.set("orb.server_self_ns", dispatch-servant, "ns")
	clientSelf := 0.0
	if !w.wl.client.Multiplex && w.wl.subscribers == 0 {
		c := w.cliT
		clientSelf = ratio(float64(c.Ns[spClientCall]-c.Ns[spSend]-c.Ns[spRecv]), float64(c.N[spClientCall]))
	}
	m.set("orb.client_self_ns", clientSelf, "ns")
	queueWait := 0.0
	if tc.C[cReqRecvN] == tc.C[cDispatchN] {
		queueWait = ratio(float64(tc.C[cDispatchAt]-tc.C[cReqRecvAt]), float64(tc.C[cDispatchN]))
	}
	m.set("orb.queue_wait_ns", queueWait, "ns")
	m.set("orb.cpu_client_us_per_op", ratio(float64(w.cli.CPUus), ops), "us")
	m.set("orb.cpu_server_us_per_op", ratio(float64(w.srv.CPUus), ops), "us")
	m.set("orb.allocs_client_per_op", ratio(float64(w.cli.Mallocs), ops), "count")
	m.set("orb.allocs_server_per_op", ratio(float64(w.srv.Mallocs), ops), "count")
	m.set("orb.retries", float64(w.cliC.retries), "count")
	m.set("orb.shed", float64(w.srvB.Shed-w.srvA.Shed+w.srvB.Expired-w.srvA.Expired), "count")

	ch, ch0 := w.srvB.Chan, w.srvA.Chan
	m.set("events.publish_ns", tc.meanNs(spPublish), "ns")
	m.set("events.delivered_ratio", ratio(float64(ch.Delivered-ch0.Delivered), float64(ch.Enqueued-ch0.Enqueued)), "ratio")
	m.set("events.dropped", float64(ch.Dropped-ch0.Dropped+ch.Coalesced-ch0.Coalesced), "count")
	m.set("events.undelivered", float64(ch.Undelivered-ch0.Undelivered+ch.Discarded-ch0.Discarded), "count")
	eventsFPW := 0.0
	if w.wl.subscribers > 0 {
		// The only connections the server process dials are the broker's.
		eventsFPW = ratio(float64(w.srvT.C[cDialFrames]), float64(w.srvT.C[cDialWrites]))
	}
	m.set("events.frames_per_write", eventsFPW, "ratio")
	m.set("events.backlog_max", float64(w.backlog), "count")

	// The ledger. The echo's round trip already frames its message twice in
	// each direction, and the dispatch span already holds the server's half
	// of the marshaling: both are taken out so no row is counted twice.
	p50 := w.p50us() * 1e3 // the best slice's, as lat_p50_us is
	kernel := rp.tcpRTT - 2*(rp.encodeNs+rp.decodeNs)
	if kernel < 0 {
		kernel = 0
	}
	dispatchSelf := dispatch - servant - rp.gen.serverNs
	if dispatchSelf < 0 {
		dispatchSelf = 0
	}
	sum := rp.gen.marshalNs + rp.gen.unmarshalNs + wireEnc + wireDec + kernel + dispatchSelf + servant
	m.set("ledger.kernel_stream_ns", kernel, "ns")
	m.set("ledger.sum_ns", sum, "ns")
	m.set("ledger.remainder_ns", p50-sum, "ns")
	m.set("ledger.remainder_ratio", ratio(p50-sum, p50), "ratio")

	p999, _ := w.lat.tail(0.999)
	m.set("driver.samples", float64(w.lat.n), "count")
	m.set("driver.traced_lat_p50_us", p50/1e3, "us")
	p99, _ := w.lat.tail(0.99)
	m.set("driver.lat_p99_us", p99/1e3, "us")
	m.set("driver.lat_p999_us", p999/1e3, "us")
	for op, name := range opNames {
		v := 0.0
		if h := w.load.perOp[op]; h != nil && opKind(op) != opFrameReady {
			v = h.quantile(0.5) / 1e3
		} else if opKind(op) == opFrameReady && w.wl.subscribers > 0 {
			v = w.lat.quantile(0.5) / 1e3
		}
		m.set("driver.lat_p50_us."+name, v, "us")
	}
	m.set("driver.gen_late_p99_us", w.open.late.quantile(0.99)/1e3, "us")
	m.set("driver.backlog_max", float64(w.open.backlogMax), "count")
	m.set("driver.trace_overhead_ratio", ratio(p50/1e3, untracedP50us)-1, "ratio")
	m.set("driver.build_s", buildS, "s")
	m.set("driver.fail_ratio", ratio(float64(w.failed), float64(w.attempted())), "ratio")
	m.set("driver.slo_miss_ratio", ratio(float64(w.sloMisses()), float64(w.attempted())), "ratio")
	return m
}

// printMetrics writes a name/value/unit table, sorted by name.
func printMetrics(out *os.File, title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
