package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cacheeval/internal/server"
)

// smoke runs one workload at tiny scale and checks the printed result:
// every declared metric on its own "name value unit" line, finite, and no
// failed or mismatched operation.
func smoke(t *testing.T, name string, traced bool) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := measure(context.Background(), w, opts{seed: 1, seconds: time.Second, traced: traced, scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	var out bytes.Buffer
	printMetrics(&out, res.Metrics)
	printed := map[string]string{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			t.Fatalf("malformed metric line %q", sc.Text())
		}
		printed[f[0]] = f[2]
	}
	for _, m := range declared(traced) {
		unit, ok := printed[m.Name]
		if !ok {
			t.Errorf("%s not printed", m.Name)
			continue
		}
		if unit != m.Unit {
			t.Errorf("%s printed with unit %s, want %s", m.Name, unit, m.Unit)
		}
	}
	if len(printed) != len(declared(traced)) {
		t.Errorf("printed %d metrics, declared %d", len(printed), len(declared(traced)))
	}
	if !traced {
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) { smoke(t, w.name, false) })
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) { smoke(t, w.name, true) })
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-8.2) > 1e-12 {
		t.Errorf("p90 = %v, want 8.2", got)
	}
	// Python: statistics.quantiles(xs, n=4) — exclusive method.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7, 1, 3, 9, 5}, 2, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1}, 0.25, 4.75}, // extrapolated, as Python does
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}

func TestJudge(t *testing.T) {
	op := metric{"op_p50_s", "s", lower, 0.10}
	parent := []float64{1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		m      metric
		change []float64
		want   string
	}{
		{"faster in every pair", op, scaled(0.8), "gain"},
		{"same", op, scaled(1.0), "ok"},
		{"slightly slower", op, scaled(1.05), "ok"},
		{"much slower", op, scaled(1.2), "regression"},
		{"too few pairs for a gain", op, scaled(0.8)[:9], "ok"},
		{"higher is better", metric{"x", "1/s", higher, 0.10}, scaled(0.8), "regression"},
		{"wide spread", op, []float64{1.3, 1.4}, "regression"},
	} {
		if got := judge(c.m, parent, c.change).result; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	if got := judge(op, noisy, noisy).result; got != "unresolved" {
		t.Errorf("parent spread wider than the bound: %s, want unresolved", got)
	}
	if got := judge(op, noisy, []float64{0.5, 0.6}).result; got != "ok" {
		t.Errorf("every change run better than every parent run: %s, want ok", got)
	}
	layer := metric{"op_p50_s", "s", lower, 0}
	if got := judge(layer, noisy, scaled(3)).result; got != "ok" {
		t.Errorf("per-layer metric, much worse: %s, want ok (no bound)", got)
	}
	if got := judge(layer, parent, scaled(0.8)).result; got != "gain" {
		t.Errorf("per-layer metric, faster in every pair: %s, want gain", got)
	}
	// Nine wins in ten pairs is the threshold.
	change := scaled(0.8)
	change[0] = 2
	if got := judge(op, parent, change).result; got != "gain" {
		t.Errorf("9/10 wins: %s, want gain", got)
	}
	change[1] = 2
	if got := judge(op, parent, change).result; got == "gain" {
		t.Errorf("8/10 wins counted as a gain")
	}
}

func TestCompareRecords(t *testing.T) {
	// Untraced records carry the end-to-end metric alloc_mb_per_op, traced
	// ones the per-layer op_p50_s.
	rec := func(procs int, seed uint64, x float64, failed int) record {
		return record{Workload: "grid-stack", Seed: seed, GOMAXPROCS: procs, NumCPU: 2,
			result: result{Correct: true, Failed: failed, Metrics: map[string]value{"alloc_mb_per_op": {x, "MB/op"}}}}
	}
	traced := func(seed uint64, op float64) record {
		return record{Workload: "grid-stack", Seed: seed, Trace: true, GOMAXPROCS: 2, NumCPU: 2,
			result: result{Correct: true, Metrics: map[string]value{"op_p50_s": {op, "s"}}}}
	}
	verdicts := func(parent, change []record) map[string]string {
		t.Helper()
		vs, err := compareRecords(parent, change)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, v := range vs {
			out[v.metric] = v.result
		}
		return out
	}
	if _, err := compareRecords([]record{rec(2, 1, 1, 0)}, []record{rec(4, 1, 1, 0)}); err == nil {
		t.Error("compared records with different GOMAXPROCS")
	}
	if got := verdicts([]record{rec(2, 1, 1, 0)}, []record{rec(2, 1, 1, 0)}); got["alloc_mb_per_op"] != "ok" || got["failed"] != "ok" {
		t.Errorf("same runs: %v", got)
	}
	if _, err := compareRecords([]record{rec(2, 1, 1, 0)}, []record{rec(2, 2, 1, 0)}); err == nil {
		t.Error("paired runs of different seeds")
	}
	if _, err := compareRecords([]record{rec(2, 1, 1, 0), rec(2, 1, 1, 0)}, []record{rec(2, 1, 1, 0)}); err == nil {
		t.Error("accepted a parent run without a partner")
	}
	if _, err := compareRecords([]record{rec(2, 1, 1, 0)}, []record{traced(1, 1)}); err == nil {
		t.Error("paired an untraced run with a traced one")
	}

	// Pairs follow seeds, not file order: the change beats the parent run
	// of its own seed every time, but listed in reverse it would lose the
	// pairs of seeds 1 and 2 and fall short of nine wins in ten.
	var parent, change []record
	for seed := uint64(1); seed <= 10; seed++ {
		x := 1 + 0.005*float64(seed)
		parent = append(parent, rec(2, seed, x, 0), traced(seed, x))
		change = append([]record{rec(2, seed, x-0.035, 0), traced(seed, x-0.035)}, change...)
	}
	if got := verdicts(parent, change); got["alloc_mb_per_op"] != "gain" || got["op_p50_s"] != "gain" {
		t.Errorf("better at every seed, listed in reverse: %v", got)
	}
	change[0].Failed = 1
	if got := verdicts(parent, change); got["failed"] != "regression" || got["alloc_mb_per_op"] == "gain" || got["op_p50_s"] == "gain" {
		t.Errorf("a change run that failed more operations: %v", got)
	}
	change[0].Failed, change[3].Correct = 0, false
	if got := verdicts(parent, change); got["failed"] != "regression" || got["alloc_mb_per_op"] == "gain" {
		t.Errorf("a change run that failed an output check: %v", got)
	}
}

// TestChecksCatchMismatches breaks outputs on purpose: each output check
// must count the damage.
func TestChecksCatchMismatches(t *testing.T) {
	ctx := context.Background()
	plan := newGridPlan(stackKind(tinyScale), 1)
	mixes, err := plan.mixes(0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.kind.runOp(ctx, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := plan.checkOp(ctx, 0, mixes, op); err != nil || !ok {
		t.Fatalf("intact op: ok=%v, %v", ok, err)
	}
	c := plan.pickCell(0)
	row := op.results[c.sweep].Cells[c.mix]
	cell := &row[c.size]
	for _, out := range []*uint64{&cell.SplitDemand.Ref.Refs[0], &cell.SplitPrefetch.Ref.Refs[0],
		&cell.UnifiedDemand.Ref.Refs[0], &cell.UnifiedPrefetch.Ref.Refs[0]} {
		*out++
	}
	if ok, err := plan.checkOp(ctx, 0, mixes, op); err != nil || ok {
		t.Fatalf("damaged cell: ok=%v, %v", ok, err)
	}

	req := server.SweepRequest{Mixes: []string{"a"}, Sizes: []int{32}}
	summary, err := json.Marshal(struct {
		Mixes []string                `json:"mixes"`
		Sizes []int                   `json:"sizes"`
		Cells [][]server.SweepCellOut `json:"cells"`
	}{req.Mixes, req.Sizes, [][]server.SweepCellOut{{{SplitDemand: server.VariantOut{MissRatio: 0.5}}}}})
	if err != nil {
		t.Fatal(err)
	}
	cells := []server.JobCellOut{{Mix: "a", Split: true, Size: 32, Result: server.VariantOut{MissRatio: 0.5}},
		{Mix: "a", Split: true, Prefetch: true, Size: 32}, {Mix: "a", Size: 32}, {Mix: "a", Prefetch: true, Size: 32}}
	if bad, err := checkCells(req, cells, summary, true); err != nil || bad != 0 {
		t.Fatalf("matching cells: %d mismatches, %v", bad, err)
	}
	if bad, err := checkCells(req, nil, summary, false); err != nil || bad != 0 {
		t.Fatalf("memo hit without cells: %d mismatches, %v", bad, err)
	}
	if bad, _ := checkCells(req, nil, summary, true); bad == 0 {
		t.Fatal("a cold job that streamed no cell was accepted")
	}
	if bad, _ := checkCells(req, cells[1:], summary, false); bad == 0 {
		t.Fatal("a stream missing a cell was accepted")
	}
	cells[0].Result.MissRatio = 0.25
	if bad, err := checkCells(req, cells, summary, true); err != nil || bad != 1 {
		t.Fatalf("differing cell: %d mismatches, %v; want 1", bad, err)
	}

	a, _ := canonicalPayload([]byte(`{"cells":[1.5,2],"cached":true,"elapsed_ms":3}`))
	b, _ := canonicalPayload([]byte("{\n  \"elapsed_ms\": 9, \"cells\": [1.5, 2], \"cached\": false}"))
	if !bytes.Equal(a, b) {
		t.Errorf("one answer served two ways compared unequal: %s vs %s", a, b)
	}
	d, _ := canonicalPayload([]byte(`{"cells":[1.5,3]}`))
	if bytes.Equal(a, d) {
		t.Error("two answers compared equal")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the declarations the
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metric, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			w := want[i]
			if !bounds {
				w.Bound = 0
			}
			if got[i] != w {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
