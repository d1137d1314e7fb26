package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
BenchmarkC2_Protocol/cdr/empty-2      	   67830	      9118 ns/op	       0 B/op	       0 allocs/op
BenchmarkC2_Protocol/cdr/empty-2      	   60000	      9900 ns/op	       0 B/op	       0 allocs/op
BenchmarkC5_Multiplex/mux/callers=8   	   90000	      5858 ns/op	      61 B/op	       1 allocs/op
BenchmarkEventFanout/subs=16/conns=1-2	   15973	     35576 ns/op	    446154 deliv/s	       1 allocs/op
PASS
`

// TestParseBench: the GOMAXPROCS suffix is not part of a benchmark's name,
// -min keeps the fastest run, and lines without -benchmem columns parse.
func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchText), true)
	if err != nil {
		t.Fatal(err)
	}
	empty, ok := got["BenchmarkC2_Protocol/cdr/empty"]
	if !ok || empty.NsPerOp != 9118 || empty.AllocsPerOp == nil || *empty.AllocsPerOp != 0 {
		t.Errorf("cdr/empty = %+v, %v", empty, ok)
	}
	if _, ok := got["BenchmarkC5_Multiplex/mux/callers=8"]; !ok {
		t.Errorf("a name go test left unsuffixed was mangled: %v", got)
	}
	if r := got["BenchmarkEventFanout/subs=16/conns=1"]; r.NsPerOp != 35576 || r.AllocsPerOp != nil {
		t.Errorf("custom-metric line = %+v", r)
	}
}

// TestDiffGatesAllocations: a benchmark well inside the ns/op threshold still
// fails the gate when it allocates more than its baseline; allocating less,
// or a tenth more on a count of ten or above, passes.
func TestDiffGatesAllocations(t *testing.T) {
	write := func(name, body string) string {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{
  "BenchmarkA": {"iterations":1,"ns_per_op":1000,"allocs_per_op":0},
  "BenchmarkB": {"iterations":1,"ns_per_op":1000,"allocs_per_op":11},
  "BenchmarkC": {"iterations":1,"ns_per_op":1000,"allocs_per_op":20}
}`)
	for _, c := range []struct {
		name    string
		a, b, c int
		want    int
	}{
		{"unchanged", 0, 11, 20, 0},
		{"fewer", 0, 4, 14, 0},
		{"zero-alloc path allocates", 1, 11, 20, 1},
		{"amortized count within its slack", 0, 12, 22, 0},
		{"amortized count beyond its slack", 0, 11, 23, 1},
	} {
		body := fmt.Sprintf(`{
  "BenchmarkA": {"iterations":1,"ns_per_op":1010,"allocs_per_op":%d},
  "BenchmarkB": {"iterations":1,"ns_per_op":990,"allocs_per_op":%d},
  "BenchmarkC": {"iterations":1,"ns_per_op":1000,"allocs_per_op":%d}
}`, c.a, c.b, c.c)
		if got := runDiff([]string{old, write("new.json", body)}, 50, "", ""); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
