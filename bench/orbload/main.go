// Command orbload is the repository's benchmark: one load-generating driver
// process and one server process (this same binary, re-executed with
// -role=server) over loopback TCP, five workloads, end-to-end metrics
// measured with tracing off and per-layer metrics from a separate traced run
// and a ledger replay. See bench/README.md.
//
// Usage:
//
//	orbload                                  one set: every workload, timed then traced
//	orbload -workload mux_pipelined          one workload, timed then traced
//	orbload -sets 3 >sets.json               three sets; exits 3 if a spread exceeds its bound
//	orbload -workload W -seed N -seconds S -trace 0|1
//	                                         one run, one JSON line (the pipeline's contract)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-role=server" {
		os.Exit(serverMain(os.Args[2:]))
	}
	os.Exit(driverMain(os.Args[1:]))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	sets     int
	buildS   float64
}

// Exit codes beyond 0 (fine) and 1 (could not run).
const (
	exitUsage     = 2 // bad flags, or a binary that is not the checkout's HEAD
	exitNoisy     = 3 // -sets: an end-to-end metric's spread exceeded its bound
	exitIncorrect = 4 // an operation failed or answered wrong
)

const (
	// setups is how many set-ups a timed run makes; setup_s is their median.
	setups = 9
	// traceSeconds is the window of the traced run that follows a timed one.
	traceSeconds = 5
	// settle is how long a run drives the workload before its window opens.
	settle = time.Second
	// refWindow is the untraced reference window a traced-only run takes
	// its trace_overhead_ratio from.
	refWindow = 2 * time.Second
)

func driverMain(args []string) int {
	var cfg config
	fs := flag.NewFlagSet("orbload", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequences and payloads")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds of a run")
	fs.IntVar(&cfg.trace, "trace", -1, "0: timed runs only; 1: traced runs only; -1: each workload timed for -seconds, then traced for 5 s")
	fs.IntVar(&cfg.sets, "sets", 1, "whole sets to run; with more than one, print medians and spreads and fail on a spread above its bound")
	fs.Float64Var(&cfg.buildS, "build-s", 0, "how long building this binary took (bench/run.sh passes it)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 || cfg.seconds < 1 || cfg.sets < 1 || cfg.trace < -1 || cfg.trace > 1 {
		fmt.Fprintln(os.Stderr, "orbload: bad arguments; see -h")
		return exitUsage
	}
	runtime.GOMAXPROCS(procs())

	wls := workloads()
	if cfg.workload != "" {
		wl, err := findWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "orbload:", err)
			return exitUsage
		}
		wls = []*workload{wl}
	}
	commit, err := checkFresh()
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbload:", err)
		return exitUsage
	}
	st := newStamp(commit, cfg)
	fmt.Fprintf(os.Stderr, "orbload: %s\n", st)

	code := 0
	if cfg.workload != "" && cfg.trace >= 0 {
		err = runOne(cfg, wls[0])
	} else {
		code, err = runSets(cfg, wls, st)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbload:", err)
		return 1
	}
	return code
}

// runOne is one run of one workload, timed or traced, in this process: what
// the pipeline drives, and what runSets is made of. The last line of
// standard output is one JSON object with exactly correct, attempted, failed
// and metrics.
func runOne(cfg config, wl *workload) error {
	// A run that cannot finish inside the pipeline's 180 s must not hang
	// it. Exiting closes the server's stdin, which is its cue to stop.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "orbload: run exceeded 175 s; giving up")
		os.Exit(1)
	})
	in := newInputs(cfg.seed)
	if err := sanityFloor(in); err != nil {
		return err
	}
	run := runTimed
	if cfg.trace == 1 {
		run = runTraced
	}
	w, m, err := run(cfg, wl, in)
	if err != nil {
		return err
	}
	printMetrics(os.Stderr, wl.name, m)
	fmt.Fprintf(os.Stderr, "  %s\n", w.wholeWindow())
	return json.NewEncoder(os.Stdout).Encode(w.result(m))
}

// runSets runs cfg.sets whole sets: every workload timed and then traced,
// each run a fresh process of this same binary exactly as the pipeline
// would start it, so a number means the same thing here as there and no run
// inherits another's heap, threads or connections.
func runSets(cfg config, wls []*workload, st stamp) (int, error) {
	doc := resultDoc{Stamp: st}
	code := 0
	for set := 0; set < cfg.sets; set++ {
		res := map[string]*workloadResult{}
		for _, wl := range wls {
			var r *workloadResult
			if cfg.trace != 1 {
				timed, err := runChild(cfg, wl, 0, cfg.seconds)
				if err != nil {
					return 0, err
				}
				r = timed
			}
			if cfg.trace != 0 {
				seconds := traceSeconds
				if cfg.trace == 1 {
					seconds = cfg.seconds
				}
				traced, err := runChild(cfg, wl, 1, seconds)
				if err != nil {
					return 0, err
				}
				if r == nil {
					r = traced
				} else {
					// Counts are the timed run's; the metrics go together.
					r.Correct = r.Correct && traced.Correct
					for k, v := range traced.Metrics {
						r.Metrics[k] = v
					}
				}
			}
			title := fmt.Sprintf("set %d  %s  (%d attempted, %d failed)", set+1, wl.name, r.Attempted, r.Failed)
			printMetrics(os.Stderr, title, r.Metrics)
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "orbload: %s: NOT CORRECT\n", wl.name)
				code = exitIncorrect
			}
			res[wl.name] = r
		}
		doc.Sets = append(doc.Sets, res)
	}
	if cfg.sets > 1 {
		noisy, err := doc.summarise(wls)
		if err != nil {
			return 0, err
		}
		if noisy && code == 0 {
			code = exitNoisy
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
		return 0, err
	}
	return code, nil
}

// runChild runs one workload once in a fresh process and returns the result
// it printed. The child's own report is shown only if it failed.
func runChild(cfg config, wl *workload, trace, seconds int) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", wl.name, "-trace", strconv.Itoa(trace), "-seconds", strconv.Itoa(seconds),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-build-s", strconv.FormatFloat(cfg.buildS, 'f', -1, 64),
	}
	var report bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stderr = &report
	out, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(report.Bytes())
		return nil, fmt.Errorf("%s (trace %d): %w", wl.name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res workloadResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		os.Stderr.Write(report.Bytes())
		return nil, fmt.Errorf("%s (trace %d): reading its result: %w", wl.name, trace, err)
	}
	return &res, nil
}

// workloadResult is one workload's outcome in the result document.
type workloadResult struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (w *window) result(m metrics) *workloadResult {
	if w.problem != "" {
		fmt.Fprintf(os.Stderr, "orbload: %s: NOT CORRECT: %s\n", w.wl.name, w.problem)
	}
	attempted := w.attempted()
	if attempted == 0 {
		attempted = 1 // the contract wants at least 1; a run that attempted nothing is already not correct
	}
	return &workloadResult{Correct: w.problem == "" && w.ok > 0, Attempted: attempted, Failed: w.failed, Metrics: m}
}

// runTimed is the end-to-end run: tracing off, setups set-ups of which the
// last one carries the measured window.
func runTimed(cfg config, wl *workload, in *inputs) (*window, metrics, error) {
	var (
		r    *rig
		took []time.Duration
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if r, err = startRig(wl, in, false); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(start))
	}
	w, err := r.measure(time.Duration(cfg.seconds)*time.Second, settle, sliceLen)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return w, w.endToEnd(took[len(took)/2]), nil
}

// runTraced is the per-layer run: a short untraced reference for
// trace_overhead_ratio, then the tracing wrappers in both processes, then the
// ledger replay while the server's echo listener is still up.
func runTraced(cfg config, wl *workload, in *inputs) (*window, metrics, error) {
	ref, err := startRig(wl, in, false)
	if err != nil {
		return nil, nil, err
	}
	untraced, err := ref.measure(refWindow, settle, sliceLen)
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("untraced reference: %w", err)
	}
	r, err := startRig(wl, in, true)
	if err != nil {
		return nil, nil, err
	}
	w, err := r.measure(time.Duration(cfg.seconds)*time.Second, settle, sliceLen)
	var rp replay
	if err == nil {
		rp, err = r.replay()
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return w, w.perLayer(rp, untraced.p50us(), cfg.buildS), nil
}

// --- validation protocol -----------------------------------------------------

// sanityFloor refuses a host or a binary that cannot do the simplest thing
// at a sane speed: 1,000 exclusive text-protocol pings must all succeed with
// a median under a millisecond. Numbers from a machine that fails this say
// nothing about the code.
func sanityFloor(in *inputs) error {
	wl, err := findWorkload("excl_text_small")
	if err != nil {
		return err
	}
	pings := *wl
	pings.mix = []opKind{opPing}
	r, err := startRig(&pings, in, false)
	if err != nil {
		return fmt.Errorf("host or binary unfit: %w", err)
	}
	st := r.runClosed(time.Now(), 0, 1000, phaseSettle)
	err = r.quiesce()
	if cerr := r.close(); err == nil {
		err = cerr
	}
	done := st.slices.total()
	p50 := time.Duration(done.lat.quantile(0.5))
	switch {
	case err != nil:
		return fmt.Errorf("host or binary unfit: %w", err)
	case done.failed > 0:
		return fmt.Errorf("host or binary unfit: %d of 1000 pings failed", done.failed)
	case p50 >= time.Millisecond:
		return fmt.Errorf("host or binary unfit: median ping took %v (floor: under 1ms)", p50)
	}
	return nil
}

// checkFresh returns the commit this binary was built from and refuses to
// run a binary that is not the checkout's HEAD: numbers from a stale build
// are worse than none. A dirty tree is marked, not refused. A build with no
// VCS stamp cannot be checked: `go run` leaves none, but builds afresh from
// the working tree every time, so the checkout's HEAD is reported, marked as
// such; outside a checkout (the pipeline's plain copy) it is "unknown".
func checkFresh() (string, error) {
	var rev, dirty string
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	head := strings.TrimSpace(string(out))
	switch {
	case rev == "" && err != nil:
		return "unknown", nil
	case rev == "":
		return head + " (working tree, unstamped build)", nil
	case err != nil:
		return rev + dirty, nil // not run from a checkout: nothing to compare with
	case head != rev:
		return "", fmt.Errorf("stale binary: built from %s but HEAD is %s; rebuild (go run ./bench/orbload)", rev, head)
	}
	return rev + dirty, nil
}

// stamp is the provenance every result carries, so a number can be traced
// to the code and the host that produced it.
type stamp struct {
	Commit       string  `json:"commit"`
	Go           string  `json:"go"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Kernel       string  `json:"kernel"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	TraceSeconds int     `json:"trace_seconds"`
	Sets         int     `json:"sets"`
	TimerUs      float64 `json:"timer_granularity_us"`
}

func newStamp(commit string, cfg config) stamp {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	timed, traced := cfg.seconds, traceSeconds
	switch cfg.trace {
	case 0:
		traced = 0
	case 1:
		timed, traced = 0, cfg.seconds
	}
	return stamp{
		Commit: commit, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: kernel, Seed: cfg.seed, Seconds: timed, TraceSeconds: traced, Sets: cfg.sets,
		TimerUs: float64(timerGranularity()) / 1e3,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("commit %s, %s, GOMAXPROCS %d of %d CPUs, kernel %s, seed %d, %d s timed + %d s traced, %d set(s), timer granularity %.0f us",
		s.Commit, s.Go, s.GOMAXPROCS, s.NumCPU, s.Kernel, s.Seed, s.Seconds, s.TraceSeconds, s.Sets, s.TimerUs)
}

// timerGranularity is the median overshoot of a short sleep: how coarse this
// host's timers are, which is why the open-loop generator spins to its ticks.
func timerGranularity() time.Duration {
	const ask = 50 * time.Microsecond
	over := make([]time.Duration, 21)
	for i := range over {
		start := time.Now()
		time.Sleep(ask)
		over[i] = time.Since(start) - ask
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return over[len(over)/2]
}

// --- sets --------------------------------------------------------------------

// resultDoc is the JSON the pipeline diffs.
type resultDoc struct {
	Stamp   stamp                        `json:"stamp"`
	Sets    []map[string]*workloadResult `json:"sets"`
	Summary map[string]map[string]spread `json:"summary,omitempty"`
}

type spread struct {
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`          // see spreadOf
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
	Noisy  bool    `json:"noisy,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the sets mode needs: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) gives them (the "exclusive" method), which
// is what the pipeline uses; vs needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spreadOf is the distance between the first and third quartile of vs as a
// share of their median. The quartiles of two values lie outside both (the
// method extrapolates), so two sets are held to their plain distance: "two
// sets agree within the bound".
func spreadOf(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	if len(vs) == 2 {
		q1, q3 = math.Min(vs[0], vs[1]), math.Max(vs[0], vs[1])
	}
	return math.Abs(ratio(q3-q1, median(vs)))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// summarise prints, per workload and metric, the median over the sets and
// the spread between them, and reports whether any end-to-end metric spread
// further than its own bound — a baseline that noisy must not be blessed.
func (d *resultDoc) summarise(wls []*workload) (noisy bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("the bounds live in BENCHMARK.json (run from the repository root): %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	if len(bounds) == 0 {
		return false, errors.New("BENCHMARK.json lists no end_to_end metrics")
	}
	d.Summary = map[string]map[string]spread{}
	for _, wl := range wls {
		sum := map[string]spread{}
		var names []string
		for name := range d.Sets[0][wl.name].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "%s over %d sets\n", wl.name, len(d.Sets))
		for _, name := range names {
			vs := make([]float64, len(d.Sets))
			for i, set := range d.Sets {
				vs[i] = set[wl.name].Metrics[name].Value
			}
			sp := spread{Median: median(vs), Spread: spreadOf(vs)}
			mark := ""
			if b, ok := bounds[name]; ok {
				sp.Bound = b
				// setup_s is short enough (tens of milliseconds) that two
				// runs differ by a quarter now and then; like the pipeline,
				// hold only the other metrics' spreads to their bounds.
				if sp.Noisy = sp.Spread > b && name != "setup_s"; sp.Noisy {
					noisy = true
					mark = "  NOISY"
				}
				mark = fmt.Sprintf("  bound %.3f%s", b, mark)
			}
			sum[name] = sp
			fmt.Fprintf(os.Stderr, "  %-34s median %14.4f  spread %.4f%s\n", name, sp.Median, sp.Spread, mark)
		}
		d.Summary[wl.name] = sum
	}
	return noisy, nil
}
