package main

import (
	"sync"
	"testing"
	"time"
)

// An open loop must charge a stall to every operation it delayed: latency
// runs from the instant an operation fell due, not from the instant the
// generator got round to issuing it. Stall the generator for 50 ms at one
// tick; that tick's operations must report at least the stall, and the ticks
// that fell due meanwhile what was left of it. A loop timing from the issue
// instant would report microseconds for all of them (coordinated omission).
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const (
		stalledTick = 5
		stall       = 50 * time.Millisecond
		ticks       = 12
	)
	ol := openLoop{
		period: 10 * time.Millisecond, burst: 4, workers: 8,
		stall: func(tick int) {
			if tick == stalledTick {
				time.Sleep(stall)
			}
		},
	}
	var (
		mu     sync.Mutex
		byTick [ticks][]time.Duration
	)
	res := ol.run(time.Now().Add(spinMargin), ticks,
		func(seq int) (opKind, uint32) { return opPing, uint32(seq / ol.burst) },
		func(_ int, j job) {
			lat := time.Since(j.due)
			mu.Lock()
			byTick[j.arg] = append(byTick[j.arg], lat)
			mu.Unlock()
		})
	for tick, lats := range byTick {
		if len(lats) != ol.burst {
			t.Fatalf("tick %d ran %d operations, want %d", tick, len(lats), ol.burst)
		}
		// Ticks that fell due during the stall inherit what remained of it.
		owed := stall - time.Duration(tick-stalledTick)*ol.period
		if tick < stalledTick || owed <= 0 {
			continue
		}
		for _, lat := range lats {
			if lat < owed {
				t.Errorf("tick %d: an operation reports %v, but it fell due %v before the generator released it", tick, lat, owed)
			}
		}
	}
	if late := time.Duration(res.late.max); late < stall {
		t.Errorf("generator lateness peaked at %v; the %v stall must show", late, stall)
	}
}

// steadyCPU is a process burning share of a CPU, sampled at every boundary
// of a window's slices.
func steadyCPU(w *window, share float64) []cpuSample {
	out := make([]cpuSample, len(w.slices.t)+1)
	for k := range out {
		at := time.Duration(k) * w.slices.every
		if k == len(w.slices.t) {
			at = w.d
		}
		out[k] = cpuSample{At: w.slices.start.Add(at).UnixNano(), CPUus: int64(share * float64(at.Microseconds()))}
	}
	return out
}

// A stall must never read as a gain. An open loop that stalls for 100 ms
// across a slice boundary completes everything it was offered, later:
// ops_per_s stays at the offered rate (the backlog draining in a rush into
// the next slice must not lift it), and slo_ok_ratio loses every operation
// the stall held past the limit.
func TestOpenLoopStallLowersSLOAndDoesNotRaiseThroughput(t *testing.T) {
	const (
		period      = 5 * time.Millisecond
		burst       = 8
		ticks       = 200
		every       = 100 * time.Millisecond
		stalledTick = 38 // due at 190 ms: the stall straddles the second boundary
		stall       = 100 * time.Millisecond
	)
	run := func(stall time.Duration) metrics {
		ol := openLoop{
			period: period, burst: burst, workers: 4 * burst,
			stall: func(tick int) {
				if tick == stalledTick {
					time.Sleep(stall)
				}
			},
		}
		start := time.Now().Add(spinMargin)
		st := newLoadStats(start, phaseMeasured(ticks*period, every), true)
		ol.run(start, ticks,
			func(int) (opKind, uint32) { return opPing, 0 },
			func(_ int, j job) {
				now := time.Now()
				st.lock()
				st.sent[j.op]++
				st.slices.at(now).complete(now, now.Sub(j.due))
				st.unlock()
			})
		w := &window{wl: &workload{period: period, burst: burst}, d: ticks * period}
		w.conclude(st.slices, st.attempted(), st.slices.total().lat.n)
		if len(w.slices.t) != 10 {
			t.Fatalf("%d slices, want 10", len(w.slices.t))
		}
		w.cliCPU, w.srvCPU = steadyCPU(w, 0.2), steadyCPU(w, 0.2)
		return w.endToEnd(time.Millisecond)
	}
	calm, stalled := run(0), run(stall)
	if c, s := calm["ops_per_s"].Value, stalled["ops_per_s"].Value; s > c*1.01 {
		t.Errorf("ops_per_s rose from %.1f to %.1f under a %v stall", c, s, stall)
	}
	// The stall holds the ticks that fell due during it: stall/period of
	// them, every one more than the 2 ms limit late.
	held := float64(stall/period) * burst / (ticks * burst)
	if s := stalled["slo_ok_ratio"].Value; s > 1-held {
		t.Errorf("slo_ok_ratio = %.4f under a %v stall; at most %.4f of the operations met the limit", s, stall, 1-held)
	}
	if c := calm["slo_ok_ratio"].Value; c < 0.9 {
		t.Errorf("slo_ok_ratio = %.4f with no stall", c)
	}
}

// The same for a closed loop, on a window built by hand: five one-second
// slices of a caller doing 1,000 calls a second at 1 ms each, the third of
// which holds a 600 ms stall. The stall must not lift ops_per_s or lower
// lat_p50_us, must show in slo_ok_ratio, and a CPU sample that arrives 40 ms
// late must not move cpu_us_per_op: the late instant carries its own time,
// so no CPU shifts into the neighbouring slice for the best slice to keep.
func TestClosedLoopStallAndLateSampleDoNotReadAsGains(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	build := func(stalled, lateSample bool) metrics {
		ops := newSliceSet(start, time.Second, 5)
		var n uint64
		for k := 0; k < 5; k++ {
			at := start.Add(time.Duration(k) * time.Second)
			for i := 0; i < 1000; i++ {
				lat := time.Millisecond
				if stalled && k == 2 && i == 200 {
					lat = 601 * time.Millisecond // the next 600 calls never happen
					i += 600
				}
				at = at.Add(lat)
				ops.at(at.Add(-time.Nanosecond)).complete(at, lat)
				n++
			}
		}
		w := &window{wl: &workload{callers: 1}, d: 5 * time.Second}
		w.conclude(ops, n, n)
		w.cliCPU, w.srvCPU = steadyCPU(w, 0.3), steadyCPU(w, 0.3)
		if lateSample {
			w.srvCPU[3].At += (40 * time.Millisecond).Nanoseconds()
			w.srvCPU[3].CPUus += int64(0.3 * 40_000)
		}
		return w.endToEnd(time.Millisecond)
	}
	calm, stalled, late := build(false, false), build(true, false), build(false, true)
	for _, name := range []string{"ops_per_s", "lat_p50_us", "cpu_us_per_op"} {
		if c, s := calm[name].Value, stalled[name].Value; s != c {
			t.Errorf("%s: %.3f with the stall, %.3f without; a stall in one slice must leave the best slice alone", name, s, c)
		}
	}
	if got := calm["ops_per_s"].Value; got != 1000 {
		t.Errorf("ops_per_s = %.3f, want 1000", got)
	}
	if c, s := calm["slo_ok_ratio"].Value, stalled["slo_ok_ratio"].Value; c != 1 || s >= 1 {
		t.Errorf("slo_ok_ratio: %.6f without the stall, %.6f with; the stalled call missed the limit", c, s)
	}
	if c, l := calm["cpu_us_per_op"].Value, late["cpu_us_per_op"].Value; l < c*0.999 || l > c*1.001 || c < 599 || c > 601 {
		t.Errorf("cpu_us_per_op: %.3f on time, %.3f with one sample 40 ms late; want 600 both times", c, l)
	}
}
