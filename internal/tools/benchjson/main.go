// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark runs can be committed and diffed as
// data (BENCH_results.json) instead of pasted prose.
//
// Usage:
//
//	go test -bench . -benchmem . | go run ./internal/tools/benchjson
//	go run ./internal/tools/benchjson -diff old.json new.json -threshold 10
//
// Lines that are not benchmark results (package headers, PASS/ok, logs) are
// ignored. When the same benchmark appears more than once (-count=N), the
// last result wins — matching how a human reads the tail of a bench log —
// unless -min is given, in which case the fastest ns/op run wins. Min-of-N
// is the noise-robust statistic the regression gate wants: scheduler
// interference only ever slows a run down, so the minimum tracks the code's
// actual cost while any single run can be an outlier.
//
// Diff mode compares two result files and exits non-zero if any benchmark
// present in both regressed by more than -threshold percent in ns/op, or
// allocates more per operation than its baseline — the regression gate
// behind `make bench-diff`. -only restricts the comparison
// to names matching a regexp (noisy micro-benchmarks need not gate CI);
// benchmarks that exist on only one side are reported but never fail the
// gate, so adding or retiring benchmarks does not break the build.
//
// The allocation gate needs neither threshold nor calibration: allocs/op is
// a count, and on a fixed code path it repeats exactly from run to run and
// host to host. The one exception is a count that is mostly set-up (the
// dials of a 32-caller exclusive pool) divided by b.N, which moves with how
// many iterations the host managed; counts of ten and more therefore get a
// tenth of slack, counts below ten — every hot path this repo pins — none.
//
// -calibrate NAME rescales every new ns/op by old[NAME]/new[NAME] before
// comparing. On shared hardware the machine itself can be 2× slower between
// a baseline run and a gate run; dividing out one reference benchmark's
// drift cancels that uniform factor, so the gate judges *relative* cost —
// which is what it protects (pooling, coalescing, fast paths are all
// relative wins). The blind spot is a regression that slows the reference
// benchmark by the same factor as everything else; the reference should
// therefore be the plainest round-trip, whose own fast paths are covered by
// the ratios of the other nineteen names against it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkFig4_RemoteCall/cdr-8   166731   6925 ns/op   1552 B/op   30 allocs/op
//
// The -benchmem columns are optional; fractional ns/op values occur for
// sub-nanosecond benchmarks. The -N suffix go test appends when GOMAXPROCS
// is not 1 is dropped from the name, so a baseline recorded on one host
// still names the same benchmarks on a host with another CPU count.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

type result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

func main() {
	diff := flag.Bool("diff", false, "compare two JSON result files instead of parsing bench output")
	threshold := flag.Float64("threshold", 10, "max ns/op regression percent before -diff fails")
	only := flag.String("only", "", "regexp restricting which benchmarks -diff compares")
	min := flag.Bool("min", false, "keep the fastest of repeated (-count=N) runs instead of the last")
	calibrate := flag.String("calibrate", "", "benchmark name whose old/new ns/op ratio rescales all new results before -diff compares")
	flag.Parse()
	if *diff {
		// The documented shape is `-diff old.json new.json -threshold 10`,
		// but flag.Parse stops at the first positional argument, so any
		// trailing flags land in Args(). Peel off file operands and feed
		// runs of flags back through the parser until everything is
		// consumed.
		var files []string
		for args := flag.Args(); len(args) > 0; args = flag.Args() {
			if args[0] == "-" || !strings.HasPrefix(args[0], "-") {
				files = append(files, args[0])
				args = args[1:]
			}
			if err := flag.CommandLine.Parse(args); err != nil {
				os.Exit(2)
			}
		}
		os.Exit(runDiff(files, *threshold, *only, *calibrate))
	}
	results, err := parseBench(os.Stdin, *min)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}

	// Deterministic output: sorted names, stable key order via struct tags.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, "{")
	for i, n := range names {
		v, _ := json.Marshal(results[n])
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		fmt.Fprintf(out, "  %q: %s%s\n", n, v, comma)
	}
	fmt.Fprintln(out, "}")
}

// parseBench collects the benchmark result lines of `go test -bench` output.
func parseBench(r io.Reader, min bool) (map[string]result, error) {
	results := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := result{Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b, _ := strconv.ParseInt(m[4], 10, 64)
			r.BytesPerOp = &b
		}
		if m[5] != "" {
			a, _ := strconv.ParseInt(m[5], 10, 64)
			r.AllocsPerOp = &a
		}
		if prev, ok := results[m[1]]; ok && min && prev.NsPerOp <= r.NsPerOp {
			continue
		}
		results[m[1]] = r
	}
	return results, sc.Err()
}

// loadResults reads one benchjson output file.
func loadResults(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]result
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// runDiff implements -diff: compare old and new result files, returning the
// process exit code (0 ok, 1 regression or usage/IO error).
func runDiff(args []string, threshold float64, only, calibrate string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: old.json new.json")
		return 1
	}
	var filter *regexp.Regexp
	if only != "" {
		var err error
		if filter, err = regexp.Compile(only); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -only regexp:", err)
			return 1
		}
	}
	oldR, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newR, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	scale := 1.0
	if calibrate != "" {
		o, okO := oldR[calibrate]
		nw, okN := newR[calibrate]
		if !okO || !okN || o.NsPerOp <= 0 || nw.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -calibrate %q not present (with ns/op > 0) in both files\n", calibrate)
			return 1
		}
		scale = o.NsPerOp / nw.NsPerOp
		fmt.Printf("  cal    %-60s %10.0f -> %10.0f ns/op  machine factor %.2fx\n",
			calibrate, o.NsPerOp, nw.NsPerOp, 1/scale)
	}
	names := make([]string, 0, len(oldR))
	for n := range oldR {
		names = append(names, n)
	}
	sort.Strings(names)

	regressed := 0
	compared := 0
	for _, n := range names {
		if filter != nil && !filter.MatchString(n) {
			continue
		}
		o := oldR[n]
		nw, ok := newR[n]
		if !ok {
			fmt.Printf("  gone   %-60s (baseline %.0f ns/op)\n", n, o.NsPerOp)
			continue
		}
		compared++
		if o.NsPerOp <= 0 {
			continue
		}
		delta := (nw.NsPerOp*scale - o.NsPerOp) / o.NsPerOp * 100
		slower, more, allocs := delta > threshold, false, ""
		if oa, na := o.AllocsPerOp, nw.AllocsPerOp; oa != nil && na != nil {
			allocs = fmt.Sprintf("  %3d -> %3d allocs/op", *oa, *na)
			more = *na > *oa+*oa/10
		}
		mark := "  ok    "
		switch {
		case slower:
			mark = "  REGR  "
		case more:
			mark = "  ALLOC "
		}
		if slower || more {
			regressed++
		}
		fmt.Printf("%s%-60s %10.0f -> %10.0f ns/op  %+6.1f%%%s\n", mark, n, o.NsPerOp, nw.NsPerOp*scale, delta, allocs)
	}
	for n := range newR {
		if _, ok := oldR[n]; !ok && (filter == nil || filter.MatchString(n)) {
			fmt.Printf("  new    %-60s (%.0f ns/op)\n", n, newR[n].NsPerOp)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d of %d benchmarks regressed more than %.0f%% ns/op or allocate more per op\n",
			regressed, compared, threshold)
		return 1
	}
	fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline, none allocating more\n", compared, threshold)
	return 0
}
