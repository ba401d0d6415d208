//go:build !race

// The reproduction goldens are excluded from race builds: the reduced-scale
// run alone takes over a minute under the race detector, and a byte-level
// output comparison has no data races of its own to find.

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// checkGolden runs the reproduction with args and compares its standard
// output byte for byte against the golden file, reporting the first lines
// that differ. The output is deterministic at every worker count.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(append(args, "-q"), &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, errOut.Bytes())
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	shown := 0
	for i := 0; i < max(len(got), len(exp)) && shown < 10; i++ {
		var g, w []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s line %d\ngot:  %s\nwant: %s", golden, i+1, g, w)
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("%s: output differs (%d lines, golden %d)", golden, len(got), len(exp))
	}
}

// TestReducedScaleGolden pins every table and figure at 50,000 references
// per trace. A change that moves a digit either fixes a bug or is a
// documented decision; regenerate testdata/paperrepro_50k.txt with
// `go run ./cmd/paperrepro -refs 50000 -q` only in the latter case.
func TestReducedScaleGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "paperrepro_50k.txt"), "-refs", "50000")
}

// TestFullScaleGolden regenerates the full reproduction and compares it
// with the archive EXPERIMENTS.md quotes, results/paperrepro_full.txt. It
// takes about 30 s on two cores, so -short skips it.
func TestFullScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale reproduction; run without -short")
	}
	checkGolden(t, filepath.Join("..", "..", "results", "paperrepro_full.txt"))
}
