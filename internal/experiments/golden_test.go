package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current output")

// checkGolden pins a simulated table byte for byte. Seeded simulator runs
// are deterministic, so any difference is a behaviour change: either a bug,
// or an intentional model change that must regenerate the goldens with
// -update and say why.
func checkGolden(t *testing.T, name string, tbl *Table) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	got := tbl.Format()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update to create it)", name, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("golden %s differs at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
}
