package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cacheeval/internal/trace"
)

// testTrace renders a small deterministic trace in text format.
func testTrace(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	w := trace.NewTextWriter(&b)
	for i := 0; i < 400; i++ {
		w.Write(trace.Ref{Addr: uint64(i%40) * 16, Size: 4, Kind: trace.IFetch})
		if i%3 == 0 {
			w.Write(trace.Ref{Addr: 0x4000 + uint64(i%97)*8, Size: 8, Kind: trace.Read})
		}
		if i%7 == 0 {
			w.Write(trace.Ref{Addr: 0x8000 + uint64(i%13)*8, Size: 8, Kind: trace.Write})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRunBasic(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-size", "1024", "-line", "16"}, strings.NewReader(testTrace(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"miss ratio:", "traffic ratio:", "references:", "1024B/16B"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.din")
	if err := os.WriteFile(path, []byte(testTrace(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-i", path, "-size", "512", "-split", "-purge", "100"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "split I/D") || !strings.Contains(out.String(), "purge every 100") {
		t.Errorf("output missing config echo:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "purges:") {
		t.Error("purge count missing")
	}
}

func TestRunPolicyFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-repl", "fifo"},
		{"-repl", "random", "-seed", "7"},
		{"-repl", "lfu", "-assoc", "4"},
		{"-repl", "slru", "-assoc", "4"},
		{"-repl", "2q"},
		{"-repl", "arc", "-assoc", "4"},
		{"-write", "through"},
		{"-write", "through-noalloc"},
		{"-prefetch", "always"},
		{"-prefetch", "onmiss"},
		{"-prefetch", "tagged"},
		{"-subblock", "4"},
		{"-n", "100"},
	} {
		var out bytes.Buffer
		if err := run(args, strings.NewReader(testTrace(t)), &out); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-repl", "clock"},
		{"-write", "never"},
		{"-prefetch", "psychic"},
		{"-format", "punchcards"},
		{"-size", "1000"},
		{"-i", "/definitely/not/a/file"},
		{"-sample-budget", "0.05"}, // no sampled mode
	} {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}

func TestRunPrefetchChangesOutput(t *testing.T) {
	var demand, prefetch bytes.Buffer
	if err := run([]string{"-size", "4096"}, strings.NewReader(testTrace(t)), &demand); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-size", "4096", "-prefetch", "always"}, strings.NewReader(testTrace(t)), &prefetch); err != nil {
		t.Fatal(err)
	}
	if demand.String() == prefetch.String() {
		t.Error("prefetch flag had no effect")
	}
	if !strings.Contains(prefetch.String(), "prefetch-always") {
		t.Error("prefetch config not echoed")
	}
}

func TestRunWriteCombining(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-write", "through", "-combine", "8"},
		strings.NewReader(testTrace(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "transactions") {
		t.Errorf("transaction stats missing:\n%s", out.String())
	}
	// Combining requires write-through.
	if err := run([]string{"-combine", "8"}, strings.NewReader(testTrace(t)), &bytes.Buffer{}); err == nil {
		t.Error("combining without write-through must be rejected")
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "1024", "-json"}, strings.NewReader(testTrace(t)), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	for _, key := range []string{"configuration", "references", "miss_ratio", "stats", "ref_stats"} {
		if _, ok := got[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
	if got["miss_ratio"].(float64) <= 0 {
		t.Error("miss ratio should be positive")
	}
}

// TestRunVictim drives the -victim flag: the buffer shows up in the text
// output and in the JSON stats, and hits reduce demand fetches.
func TestRunVictim(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "256", "-assoc", "1", "-victim", "4"},
		strings.NewReader(testTrace(t)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "victim buffer:") {
		t.Errorf("text output missing victim line:\n%s", out.String())
	}
	var js bytes.Buffer
	if err := run([]string{"-size", "256", "-assoc", "1", "-victim", "4", "-json"},
		strings.NewReader(testTrace(t)), &js); err != nil {
		t.Fatal(err)
	}
	var res jsonResult
	if err := json.Unmarshal(js.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.VictimHits == 0 {
		t.Error("direct-mapped cache with a victim buffer recorded no victim hits")
	}
}

// TestRunHierarchy drives the -l2-* flags in text and JSON form and checks
// the cross-level identities the simulator must satisfy.
func TestRunHierarchy(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-size", "256", "-l2-size", "4096", "-l2-line", "32"},
		strings.NewReader(testTrace(t)), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L1 miss ratio:", "L2 events:", "L2 miss ratio:", "+ L2 4096B/32B"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	var js bytes.Buffer
	if err := run([]string{"-size", "256", "-l2-size", "4096", "-l2-line", "32", "-json"},
		strings.NewReader(testTrace(t)), &js); err != nil {
		t.Fatal(err)
	}
	var res hierJSONResult
	if err := json.Unmarshal(js.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.L2Fetches != res.L1Stats.DemandFetches+res.L1Stats.PrefetchFetches {
		t.Errorf("L2 fetches %d != L1 fetches %d",
			res.L2Fetches, res.L1Stats.DemandFetches+res.L1Stats.PrefetchFetches)
	}
	if res.L2Writes != res.L1Stats.DirtyPushes {
		t.Errorf("L2 writes %d != L1 dirty pushes %d", res.L2Writes, res.L1Stats.DirtyPushes)
	}
	if res.GlobalMiss > res.MissRatio {
		t.Errorf("global miss ratio %v exceeds L1 miss ratio %v", res.GlobalMiss, res.MissRatio)
	}
}

// TestRunHierarchyFlagValidation pins the CLI-level rejections for the new
// flags: removed modes combined with them, orphaned -l2-* flags, and
// inverted hierarchies.
func TestRunHierarchyFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-l2-line", "32"},
		{"-l2-assoc", "2"},
		{"-victim", "2", "-sample-budget", "0.05"},
		{"-l2-size", "4096", "-sample-budget", "0.05"},
		{"-victim", "2", "-parallel", "4"},
		{"-l2-size", "4096", "-parallel", "4"},
		{"-size", "4096", "-l2-size", "512"},
		{"-victim", "-1"},
		{"-victim", "2", "-subblock", "4"},
	} {
		if err := run(args, strings.NewReader(testTrace(t)), &bytes.Buffer{}); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}
