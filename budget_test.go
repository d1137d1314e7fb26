package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBudget is the subtraction ratchet. It recounts from source the numbers
// this repository tracks as it shrinks and fails when any rises above its
// value in the committed BUDGET file. A change that lowers a number lowers
// the file in the same commit, so the ratchet only ever tightens.
func TestBudget(t *testing.T) {
	budget := readBudget(t, "BUDGET")
	got := map[string]int{
		"orb_transport_lines": countLines(t, "internal/orb", "internal/transport"),
		"options_fields":      countStructFields(t, "internal/orb", "Options"),
		"stats_structs":       countStatsStructs(t, "internal/orb", "internal/transport", "internal/events"),
		"time_now_sites":      countTimeRefs(t, false, "Now", "internal/orb", "internal/transport"),
		"test_sleeps":         countTimeRefs(t, true, "Sleep", "internal"),
	}
	for key, n := range got {
		max, ok := budget[key]
		switch {
		case !ok:
			t.Errorf("BUDGET has no %s line (recounted %d)", key, n)
		case n > max:
			t.Errorf("%s rose to %d, over the budget of %d", key, n, max)
		case n < max:
			t.Logf("%s is %d, under the budget of %d: lower BUDGET", key, n, max)
		}
	}
	for key := range budget {
		if _, ok := got[key]; !ok {
			t.Errorf("BUDGET names %s, which nothing counts", key)
		}
	}
}

// readBudget parses "key value" lines; '#' starts a comment.
func readBudget(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	budget := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		budget[fields[0]] = n
	}
	return budget
}

// goFiles lists the .go files under dirs (recursively), test files only or
// non-test files only.
func goFiles(t *testing.T, tests bool, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			if strings.HasSuffix(path, "_test.go") == tests {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// countLines counts the lines of the non-test Go files in dirs.
func countLines(t *testing.T, dirs ...string) int {
	t.Helper()
	n := 0
	for _, path := range goFiles(t, false, dirs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(data, []byte("\n"))
	}
	return n
}

// parseFiles parses the named files.
func parseFiles(t *testing.T, files []string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	var out []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// structTypes calls fn for every named struct type declared in files.
func structTypes(files []*ast.File, fn func(name string, st *ast.StructType)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					fn(ts.Name.Name, st)
				}
			}
			return true
		})
	}
}

// countStructFields counts the fields (each name, embedded ones once) of the
// named struct type in dir's non-test files.
func countStructFields(t *testing.T, dir, typeName string) int {
	t.Helper()
	n := -1
	structTypes(parseFiles(t, goFiles(t, false, dir)), func(name string, st *ast.StructType) {
		if name != typeName {
			return
		}
		n = 0
		for _, f := range st.Fields.List {
			n += max(1, len(f.Names))
		}
	})
	if n < 0 {
		t.Fatalf("no struct %s in %s", typeName, dir)
	}
	return n
}

// countStatsStructs counts the struct types named *Stats declared in the
// non-test files of dirs: the runtime's separate counter surfaces.
func countStatsStructs(t *testing.T, dirs ...string) int {
	t.Helper()
	n := 0
	structTypes(parseFiles(t, goFiles(t, false, dirs...)), func(name string, _ *ast.StructType) {
		if strings.HasSuffix(name, "Stats") {
			n++
		}
	})
	return n
}

// countTimeRefs counts references to time.<fn> in the test or non-test files
// under dirs.
func countTimeRefs(t *testing.T, tests bool, fn string, dirs ...string) int {
	t.Helper()
	n := 0
	for _, f := range parseFiles(t, goFiles(t, tests, dirs...)) {
		ast.Inspect(f, func(node ast.Node) bool {
			if sel, ok := node.(*ast.SelectorExpr); ok && sel.Sel.Name == fn {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
					n++
				}
			}
			return true
		})
	}
	return n
}
