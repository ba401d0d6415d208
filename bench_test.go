package cacheeval_test

// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact; DESIGN.md §4 maps artifacts to code), plus microbenchmarks
// of the hot paths. The paper-artifact benchmarks run at a reduced
// per-trace reference budget so one iteration stays in seconds; run
// cmd/paperrepro for the full-scale regeneration.

import (
	"context"
	"testing"

	"cacheeval"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// benchOpts is the reduced-scale configuration for artifact benchmarks.
// -short drops the budget another order of magnitude so CI bench smokes
// (one iteration per benchmark) finish in seconds; absolute numbers from
// short runs are not comparable to full ones.
//
// Every artifact and sweep benchmark runs with obs.Discard installed so
// CI's bench-smoke gate (threshold 1.5 against the merge-base) guards the
// overhead of the instrumented engine path, not just the sink-free one;
// the cache microbenchmarks time the uninstrumented System.Run loop.
// Discard is not Enabled for obs.KindMissCauses, so the 3C tracker stays
// off.
func benchOpts() experiments.Options {
	o := experiments.Options{RefLimit: 50000, Sink: obs.Discard}
	if testing.Short() {
		o.RefLimit = 5000
	}
	return o
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep regenerates the §3.3-§3.5 master grid backing Table 3,
// Figures 3-10 and Table 4.
func benchSweep(b *testing.B) *experiments.SweepResult {
	b.Helper()
	sweep, err := experiments.Sweep(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return sweep
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		if _, err := experiments.Table3(sweep); err != nil {
			b.Fatal(err)
		}
	}
}

// The eight per-workload figures share the sweep; each benchmark measures
// the full regeneration cost of its artifact (sweep + extraction).
func benchFigure(b *testing.B, kind experiments.FigureKind) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		if out := sweep.RenderFigure(kind); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure3(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		if r := experiments.Table4(sweep); len(r.Rows) == 0 {
			b.Fatal("empty table 4")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		sweep := benchSweep(b)
		if _, err := experiments.Table5(t1, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Clark(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZ80000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Z80000(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkM68020(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.M68020(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPurgeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PurgeAblation(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplacementAblation(b *testing.B) {
	o := benchOpts()
	o.Sizes = []int{256, 1024, 4096, 16384}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReplacementAblation(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- long-trace hierarchy sweep wall-clock ---

// benchLongOpts configures a Table 3 sweep over long traces: references
// per mix member far above the artifact benchmarks. The stream is
// materialized once outside the timed region, so the benchmark prices the
// engines alone, not workload synthesis.
func benchLongOpts(b *testing.B) (experiments.Options, []workload.Mix, [][]trace.Ref) {
	b.Helper()
	refs := 15000000
	if testing.Short() {
		refs = 25000
	}
	// Workers pins the grid serial so the benchmark stays a stable baseline
	// on any runner.
	o := experiments.Options{Sink: obs.Discard, Workers: 1}
	// Two of Table 3's single-trace workload units (VCCOM, VSPICE), with
	// their run lengths extended beyond the paper's 250,000 references
	// (the generators are unbounded; Spec.Refs is the only cap).
	base := workload.StandardMixes()[2:4]
	mixes := make([]workload.Mix, len(base))
	for i, m := range base {
		specs := make([]workload.Spec, len(m.Specs))
		copy(specs, m.Specs)
		for j := range specs {
			specs[j].Refs = refs
		}
		mixes[i] = workload.Mix{Name: m.Name, Specs: specs, Quantum: m.Quantum}
	}
	streams := make([][]trace.Ref, len(mixes))
	for i, m := range mixes {
		refs, err := o.CollectMixContext(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = refs
	}
	return o, mixes, streams
}

// BenchmarkSweepHierarchy runs a Table 3 grid over long traces with a
// hierarchy behind every L1: a 4-line victim buffer plus a 256KB unified L2
// (large enough to back the split grid's biggest 2×64KB pass). Neither
// extension preserves stack inclusion, so the registry routes every pass to
// the per-size engine; the recorded BENCH_6.json pair (exact vs
// hierarchy) priced that routing against the one-pass stack engines the
// single-level sweep gets to use.
func BenchmarkSweepHierarchy(b *testing.B) {
	o, mixes, streams := benchLongOpts(b)
	o.Victim = 4
	o.L2 = &core.L2Spec{Size: 262144, LineSize: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepRefsContext(context.Background(), o, mixes, streams); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the hot paths ---

// benchRefs materializes a workload once for the cache microbenchmarks,
// at a tenth of the requested length under -short.
func benchRefs(b *testing.B, name string, n int) []trace.Ref {
	b.Helper()
	if testing.Short() {
		n /= 10
	}
	spec, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rd, err := spec.Open()
	if err != nil {
		b.Fatal(err)
	}
	refs, err := trace.Collect(rd, n, 0)
	if err != nil {
		b.Fatal(err)
	}
	return refs
}

func benchSystemConfig(assoc int, fetch cacheeval.FetchPolicy) cacheeval.SystemConfig {
	return cacheeval.SystemConfig{
		Unified: cacheeval.Config{Size: 16384, LineSize: 16, Assoc: assoc, Fetch: fetch},
	}
}

func benchCacheAccess(b *testing.B, sc cacheeval.SystemConfig) {
	refs := benchRefs(b, "FGO1", 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := cacheeval.NewSystem(sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(refs)))
}

func BenchmarkCacheFullyAssoc(b *testing.B) {
	benchCacheAccess(b, benchSystemConfig(0, cacheeval.DemandFetch))
}

func BenchmarkCacheDirectMapped(b *testing.B) {
	benchCacheAccess(b, benchSystemConfig(1, cacheeval.DemandFetch))
}

func BenchmarkCachePrefetch(b *testing.B) {
	benchCacheAccess(b, benchSystemConfig(0, cacheeval.PrefetchAlways))
}

// benchSweepEngine times one RunSweep over FGO1 across the paper's full
// 32B-64KB size grid with obs.Discard installed, the path every sweep
// takes to the engine the spec selects.
func benchSweepEngine(b *testing.B, fetch cacheeval.FetchPolicy, repl cacheeval.Replacement) {
	refs := benchRefs(b, "FGO1", 100000)
	sizes := make([]int, 0, 12)
	for s := 32; s <= 65536; s *= 2 {
		sizes = append(sizes, s)
	}
	spec := core.SweepSpec{Sizes: sizes, LineSize: 16, Quantum: 20000, Fetch: fetch, Repl: repl}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.RunSweep(context.Background(), spec, trace.NewSliceReader(refs), obs.Discard, "bench", int64(len(refs)))
		if err != nil {
			b.Fatal(err)
		}
		if out.Results[0].Ref.TotalRefs() == 0 {
			b.Fatal("empty results")
		}
	}
	b.SetBytes(int64(len(refs)))
}

// BenchmarkMultiSystem measures the one-pass stack engine — the pass that
// replaces twelve per-size demand simulations in each sweep.
func BenchmarkMultiSystem(b *testing.B) { benchSweepEngine(b, cacheeval.DemandFetch, cacheeval.LRU) }

// BenchmarkFanoutSystem measures the one-pass multi-size prefetch engine —
// the pass that replaces twelve per-size prefetch-always simulations in
// each sweep.
func BenchmarkFanoutSystem(b *testing.B) {
	benchSweepEngine(b, cacheeval.PrefetchAlways, cacheeval.LRU)
}

// BenchmarkPerSizeSweep measures the per-size engine, which a FIFO sweep
// selects: one cache.System per size, each run as an instrumented stream.
func BenchmarkPerSizeSweep(b *testing.B) { benchSweepEngine(b, cacheeval.DemandFetch, cacheeval.FIFO) }

func BenchmarkGenerator(b *testing.B) {
	spec, err := workload.ByName("VCCOM")
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.NewGenerator(spec.Params, spec.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramModel(b *testing.B) {
	g, err := workload.NewProgram(workload.VAXProgram(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryCodec(b *testing.B) {
	refs := benchRefs(b, "ZGREP", 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec countWriter
		w := trace.NewBinaryWriter(&rec)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(refs)))
}

// countWriter is an io.Writer that only counts, keeping the codec benchmark
// allocation-honest.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func BenchmarkBusStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BusStudy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineSizeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LineSize(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefetchPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PrefetchPolicies(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SamplingStudy(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}
