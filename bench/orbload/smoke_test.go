package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// The driver re-executes its own binary as the server; under `go test` that
// binary is the test binary, so it must answer to -role=server too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role=server" {
		os.Exit(serverMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is BENCHMARK.json as the pipeline's contract defines it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(ms []benchMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// Two-process smoke test: every workload, 200 ms timed and 200 ms traced in
// four slices, through the same code path the real runs take. Every reply is checked,
// the server's served counts must equal the driver's sent counts, and the
// metrics that come out must be exactly the ones BENCHMARK.json lists, in
// the units it lists.
func TestEveryWorkloadAcrossTwoProcesses(t *testing.T) {
	bj := readBenchmarkJSON(t)
	in := newInputs(42)
	const window, settle, every = 200 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond
	for _, wl := range workloads() {
		for _, traced := range []bool{false, true} {
			r, err := startRig(wl, in, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			w, err := r.measure(window, settle, every)
			var (
				got  metrics
				want map[string]string
			)
			if err == nil {
				if traced {
					// The ledger replay takes most of a second; once, on the
					// workload with structs to marshal, is enough here.
					var rp replay
					if wl.name == "excl_cdr_marshal" {
						rp, err = r.replay()
						if err == nil && (rp.gen.marshalNs <= 0 || rp.decodeNs <= 0 || rp.tcpRTT <= rp.inprocRTT) {
							t.Errorf("%s: implausible replay %+v", wl.name, rp)
						}
					}
					if err == nil {
						got, want = w.perLayer(rp, 1, 0), units(bj.PerLayer)
					}
				} else {
					got, want = w.endToEnd(time.Millisecond), units(bj.EndToEnd)
				}
			}
			if cerr := r.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if w.problem != "" || w.failed != 0 || w.ok == 0 {
				t.Errorf("%s traced=%v: %d ok, %d failed: %s", wl.name, traced, w.ok, w.failed, w.problem)
			}
			for name, m := range got {
				if unit, listed := want[name]; !listed {
					t.Errorf("%s: metric %s is not in BENCHMARK.json", wl.name, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", wl.name, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: BENCHMARK.json lists %s, the run did not report it", wl.name, name)
				}
			}
			if traced {
				checkPredictions(t, wl, got)
			}
		}
	}
}

// checkPredictions holds the structural predictions of bench/README.md that
// do not depend on how fast the host is.
func checkPredictions(t *testing.T, wl *workload, m metrics) {
	v := func(name string) float64 { return m[name].Value }
	if !wl.client.Multiplex && wl.subscribers == 0 {
		if v("transport.frames_per_write") != 1 {
			t.Errorf("%s: frames_per_write = %v; an exclusive connection writes one frame at a time", wl.name, v("transport.frames_per_write"))
		}
		if int(v("transport.dials")) != wl.callers {
			t.Errorf("%s: %v dials for %d callers", wl.name, v("transport.dials"), wl.callers)
		}
	}
	if wl.client.Multiplex && v("transport.dials") != 1 {
		t.Errorf("%s: %v dials; all callers share one connection", wl.name, v("transport.dials"))
	}
	if v("orb.retries") != 0 || v("orb.shed") != 0 || v("events.dropped") != 0 || v("events.undelivered") != 0 {
		t.Errorf("%s: retries %v, shed %v, dropped %v, undelivered %v; all must be 0",
			wl.name, v("orb.retries"), v("orb.shed"), v("events.dropped"), v("events.undelivered"))
	}
	if wl.subscribers > 0 && v("events.delivered_ratio") != 1 {
		t.Errorf("%s: delivered_ratio = %v", wl.name, v("events.delivered_ratio"))
	}
}

// BENCHMARK.json must stay inside the limits the pipeline refuses a file
// for, and must name the workloads this binary knows.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var have, want []string
	for _, w := range bj.Workloads {
		use(w.Name)
		have = append(have, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads() {
		want = append(want, w.name)
		if w2, _ := findWorkload(w.name); w2 == nil {
			t.Errorf("workload %s cannot be found by name", w.name)
		}
	}
	slices.Sort(have)
	slices.Sort(want)
	if len(have) < 2 || len(have) > 8 || !slices.Equal(have, want) {
		t.Errorf("BENCHMARK.json workloads %v, binary knows %v", have, want)
	}
	setup := false
	for _, m := range bj.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
	for _, m := range bj.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per_layer %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics", n)
	}
	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics", n)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}
