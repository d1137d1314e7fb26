package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/, runs each, and checks
// that it exits cleanly having printed the outcome its scenes exist to show:
// a line that states a result, never a timing. It builds binaries, so -short
// skips it.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	outcomes := map[string][]string{
		// Scene 3: every idempotent call completes through a partition.
		"chaos":   {"40 calls, 0 failures;"},
		"codegen": {"virtual void f(HdA*) = 0;", "| play | void | in string name, in Media::StreamState initial |"},
		"events":  {"the freshest window", "undelivered 0"},
		// Scene 2: the non-idempotent call is not retried; scene 3: the
		// breaker trips.
		"faulttolerance": {"play surfaced its lost reply", "closed -> open"},
		"interceptors":   {"stop() rejected by server filter"},
		"legacybridge":   {"pinged back: 1 time(s)"},
		"mediacontrol":   {"playing; state=1 volume=40", `< err 4 1 "Media::NoSuchStream: {Name:no-such.mpg}"`},
		"multiplex":      {" 1 connections dialed"},
		"naming":         {"Naming::NotFound: {Name:media/studio-z}"},
		"overload":       {"shedding kept the server useful"},
		"quickstart":     {"state after play: Playing", "NoSuchStream"},
		"replicas":       {"every call succeeded across kill, drain and migration"},
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			want, ok := outcomes[name]
			if !ok {
				t.Fatalf("examples/%s has no expected outcome here", name)
			}
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			for _, w := range want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
		})
	}
}
