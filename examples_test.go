package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultExamplesRun builds and runs the two examples that drive the fault
// injector end to end and checks that each exits cleanly having printed its
// scenes' outcomes. It builds binaries, so -short skips it.
func TestFaultExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, tc := range []struct {
		name string
		want []string
	}{
		// Scene 3: every idempotent call completes through a partition.
		{"chaos", []string{"40 calls, 0 failures;"}},
		// Scene 2: the non-idempotent call is not retried; scene 3: the
		// breaker trips.
		{"faulttolerance", []string{"play surfaced its lost reply", "closed -> open"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), tc.name)
			if out, err := exec.Command(goTool, "build", "-o", bin, "./examples/"+tc.name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}
