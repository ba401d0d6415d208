package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/model"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// The grid workloads call the experiments sweep driver directly, as the
// reproduction (cmd/paperrepro) does: one caller, two workers, every op
// materializing its own streams. Every op sweeps the same six standard
// mixes: the LISP compiler and VAXIMA 5-section assortments (non-stationary:
// five phases of one program each, so engine claims are not tuned to the
// easy regime) and the stationary units VCCOM, VSPICE, FGO1 and MVS1. The
// seed XORs a per-op value into every member's generator seed, so no two
// ops share an input, but it never changes which mixes an op sweeps or how
// long they are: the units' costs differ by up to a factor of two, and ops
// that each drew their own mixes would make a run's median follow the draw.

// gridWorkers is the sweep driver's worker count on both grid workloads.
const gridWorkers = 2

var gridMixes = []string{"LISP Compiler - 5 Sections", "VAXIMA - 5 Sections", "VCCOM", "VSPICE", "FGO1", "MVS1"}

// gridL2 is grid-persize's second-level cache: 256 KB with 64-byte lines.
var gridL2 = &core.L2Spec{Size: 256 << 10, LineSize: 64}

// gridKind describes one grid workload: the sweeps an op runs and the
// length of its mixes' members.
type gridKind struct {
	sweeps      []experiments.Options
	sectionRefs int
	unitRefs    int
}

func stackKind(sc scale) gridKind {
	return gridKind{
		sweeps:      []experiments.Options{{Workers: gridWorkers}},
		sectionRefs: sc.stackSectionRefs, unitRefs: sc.stackUnitRefs,
	}
}

func persizeKind(sc scale) gridKind {
	return gridKind{
		sweeps: []experiments.Options{
			{Workers: gridWorkers, Victim: 4, L2: gridL2},
			{Workers: gridWorkers, Repl: cache.ARC},
		},
		sectionRefs: sc.persizeSectionRefs, unitRefs: sc.persizeUnitRefs,
	}
}

// splitmix is a 64-bit finalizer used to derive per-op values from the
// seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// gridPlan yields each op's mixes.
type gridPlan struct {
	kind gridKind
	seed uint64
}

func newGridPlan(kind gridKind, seed uint64) gridPlan {
	return gridPlan{kind: kind, seed: seed}
}

// mixes returns op i's six mixes, in gridMixes order.
func (p gridPlan) mixes(i int) ([]workload.Mix, error) {
	xor := splitmix(p.seed ^ splitmix(uint64(i)))
	byName := map[string]workload.Mix{}
	for _, m := range workload.StandardMixes() {
		byName[m.Name] = m
	}
	out := make([]workload.Mix, 0, len(gridMixes))
	for _, name := range gridMixes {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("no standard mix %q", name)
		}
		refs := p.kind.unitRefs
		if len(m.Specs) > 1 {
			refs = p.kind.sectionRefs
		}
		specs := append([]workload.Spec(nil), m.Specs...)
		for j := range specs {
			specs[j].Refs = refs
			specs[j].Seed ^= xor
		}
		m.Specs = specs
		out = append(out, m)
	}
	return out, nil
}

// gridOp is one completed op.
type gridOp struct {
	dur       time.Duration
	alloc     uint64
	results   []*experiments.SweepResult
	segmented int
}

// runOp runs every sweep of the kind over mixes, the driver materializing
// the streams as the reproduction does.
func (k gridKind) runOp(ctx context.Context, mixes []workload.Mix) (gridOp, error) {
	var op gridOp
	a0 := heapAllocs()
	t0 := time.Now()
	for _, so := range k.sweeps {
		res, err := experiments.SweepMixesContext(ctx, so, mixes)
		if err != nil {
			return gridOp{}, err
		}
		op.results = append(op.results, res)
		for _, p := range res.Parallel {
			if !p.Info.FellBack && p.Info.Segments > 1 {
				op.segmented++
			}
		}
	}
	op.dur = time.Since(t0)
	op.alloc = heapAllocs() - a0
	return op, nil
}

// gridCell names one simulation of an op: sweep, mix, size, organization
// and fetch policy.
type gridCell struct {
	sweep, mix, size int
	split, prefetch  bool
}

func (c gridCell) String() string {
	return fmt.Sprintf("sweep %d mix %d size %d split=%v prefetch=%v", c.sweep, c.mix, c.size, c.split, c.prefetch)
}

// pickCell chooses the cell op i checks.
func (p gridPlan) pickCell(i int) gridCell {
	r := rand.New(rand.NewPCG(p.seed, uint64(i)))
	return gridCell{
		sweep: r.IntN(len(p.kind.sweeps)), mix: r.IntN(len(gridMixes)), size: r.IntN(len(model.CacheSizes)),
		split: r.IntN(2) == 1, prefetch: r.IntN(2) == 1,
	}
}

// cellOf returns the sweep's result for one cell.
func cellOf(res *experiments.SweepResult, c gridCell) experiments.SimOut {
	cell := res.Cells[c.mix][c.size]
	switch {
	case c.split && c.prefetch:
		return cell.SplitPrefetch
	case c.split:
		return cell.SplitDemand
	case c.prefetch:
		return cell.UnifiedPrefetch
	default:
		return cell.UnifiedDemand
	}
}

// oracle re-simulates one cell with a fresh cache.System (or
// cache.Hierarchy for an L2 sweep), built from the configuration the sweep
// options describe, independently of the engine registry.
func oracle(so experiments.Options, m workload.Mix, refs []trace.Ref, c gridCell) (experiments.SimOut, error) {
	fetch := cache.DemandFetch
	if c.prefetch {
		fetch = cache.PrefetchAlways
	}
	base := cache.Config{Size: model.CacheSizes[c.size], LineSize: 16, Fetch: fetch, Repl: so.Repl, VictimLines: so.Victim}
	sc := cache.SystemConfig{PurgeInterval: m.Quantum}
	if c.split {
		sc.Split, sc.I, sc.D = true, base, base
	} else {
		sc.Unified = base
	}
	var out experiments.SimOut
	var l1 *cache.System
	if so.L2 != nil {
		h, err := cache.NewHierarchy(cache.HierarchyConfig{L1: sc,
			L2: cache.Config{Size: so.L2.Size, LineSize: so.L2.LineSize, Assoc: so.L2.Assoc}})
		if err != nil {
			return out, err
		}
		if _, err := h.Run(trace.NewSliceReader(refs), 0); err != nil {
			return out, err
		}
		out.Ref, out.H = h.RefStats(), cache.HierResult{Ev: h.HierStats(), U: h.L2Stats()}
		l1 = h.L1()
	} else {
		sys, err := cache.NewSystem(sc)
		if err != nil {
			return out, err
		}
		if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
			return out, err
		}
		out.Ref = sys.RefStats()
		l1 = sys
	}
	if c.split {
		out.I, out.D = l1.ICache().Stats(), l1.DCache().Stats()
	} else {
		out.U = l1.Unified().Stats()
	}
	return out, nil
}

// checkOp re-simulates one seed-chosen cell of op i with the oracle, over
// the checked mix materialized afresh, and reports whether the op's result
// for that cell matches.
func (p gridPlan) checkOp(ctx context.Context, i int, mixes []workload.Mix, op gridOp) (bool, error) {
	c := p.pickCell(i)
	refs, err := experiments.Options{}.CollectMixContext(ctx, mixes[c.mix])
	if err != nil {
		return false, err
	}
	want, err := oracle(p.kind.sweeps[c.sweep], mixes[c.mix], refs, c)
	if err != nil {
		return false, err
	}
	if cellOf(op.results[c.sweep], c) != want {
		fmt.Fprintf(errLog, "bench: op %d: %s differs from a fresh simulation\n", i, c)
		return false, nil
	}
	return true, nil
}

// errLog receives the diagnostics that explain a failed output check.
var errLog io.Writer = os.Stderr

func runGridStack(ctx context.Context, o opts) (outcome, error) {
	return runGrid(ctx, o, stackKind(o.scale))
}

func runGridPersize(ctx context.Context, o opts) (outcome, error) {
	return runGrid(ctx, o, persizeKind(o.scale))
}

// gridSetup times what a sweep caller does before its first op: resolving
// the op's mixes from the workload catalog and sizing their members.
func gridSetup(kind func(scale) gridKind) func(context.Context, opts) (time.Duration, error) {
	return func(_ context.Context, o opts) (time.Duration, error) {
		t0 := time.Now()
		_, err := newGridPlan(kind(o.scale), o.seed).mixes(0)
		return time.Since(t0), err
	}
}

// runGrid measures a grid workload: cold ops, each followed — outside the
// timed op — by its output check, until the next op would overrun the
// window. Traced, it runs traceGrid instead.
func runGrid(ctx context.Context, o opts, kind gridKind) (outcome, error) {
	plan := newGridPlan(kind, o.seed)
	if o.traced {
		return traceGrid(ctx, o, plan)
	}
	var out outcome
	var steps []time.Duration
	var alloc uint64
	if err := gridWarmup(ctx, plan); err != nil {
		return out, err
	}
	start := time.Now()
	fits := func() bool {
		return time.Since(start)+time.Duration(median(seconds(steps))*float64(time.Second)) <= o.seconds
	}
	for i := 0; i < o.scale.minOps || fits(); i++ {
		s0 := time.Now()
		mixes, err := plan.mixes(i)
		if err != nil {
			return out, err
		}
		out.attempted++
		op, err := kind.runOp(ctx, mixes)
		if err != nil {
			return out, fmt.Errorf("op %d: %w", i, err)
		}
		ok, err := plan.checkOp(ctx, i, mixes, op)
		if err != nil {
			return out, err
		}
		if !ok {
			out.mismatches++
		}
		alloc += op.alloc
		steps = append(steps, time.Since(s0))
	}
	out.failed = out.mismatches
	out.v = values{
		"alloc_mb_per_op": float64(alloc) / float64(out.attempted) / 1e6,
		"peak_rss_mb":     peakRSSMB(),
	}
	return out, nil
}

// gridWarmup runs one untimed op on inputs no measured op uses, so lazy
// initialization and the heap's first growth fall outside the window.
func gridWarmup(ctx context.Context, plan gridPlan) error {
	mixes, err := plan.mixes(-1)
	if err != nil {
		return err
	}
	_, err = plan.kind.runOp(ctx, mixes)
	return err
}

// traceGrid is the traced grid run: the window alternates untraced and
// traced cold ops (the program's own obs.NewTrace spans), whose medians give
// the tracing overhead; then one op is decomposed serially.
func traceGrid(ctx context.Context, o opts, plan gridPlan) (outcome, error) {
	var out outcome
	var plain, traced []time.Duration
	segmented := 0
	v := values{}
	if err := gridWarmup(ctx, plan); err != nil {
		return out, err
	}
	watch := watchRuntime()
	start := time.Now()
	for i := 0; i < 2*o.scale.minOps || time.Since(start) < o.seconds; i++ {
		mixes, err := plan.mixes(i)
		if err != nil {
			return out, err
		}
		opCtx := ctx
		if i%2 == 1 {
			opCtx, _ = obs.NewTrace(ctx)
		}
		out.attempted++
		op, err := plan.kind.runOp(opCtx, mixes)
		if err != nil {
			return out, fmt.Errorf("op %d: %w", i, err)
		}
		ok, err := plan.checkOp(ctx, i, mixes, op)
		if err != nil {
			return out, err
		}
		if !ok {
			out.mismatches++
		}
		segmented += op.segmented
		if i%2 == 1 {
			traced = append(traced, op.dur)
		} else {
			plain = append(plain, op.dur)
		}
	}
	watch.finish(v)
	mixes, err := plan.mixes(0)
	if err != nil {
		return out, err
	}
	bad, err := decomposeGrid(ctx, plan.kind, mixes, median(seconds(plain)), v)
	if err != nil {
		return out, err
	}
	out.attempted++
	if bad > 0 {
		out.mismatches++
	}
	if err := engineCosts(ctx, mixes, o.scale.microRefs, v); err != nil {
		return out, err
	}
	v["op_p50_s"] = median(seconds(plain))
	v["engine.parallel.segmented_passes"] = float64(segmented)
	v["bench.trace_overhead_frac"] = ratio(median(seconds(traced)), median(seconds(plain))) - 1
	zeroServiceLayers(v)
	out.failed = out.mismatches
	out.v = v
	return out, nil
}

// layers is one op decomposed serially (one worker, so heap deltas and
// times attribute to one call at a time) through public calls:
//
//   - serial: the op itself under obs.NewTrace, timed before and after the
//     layers; spans is its span time, so the rest is the experiments
//     layer's own overhead;
//   - gen: workload generation, each mix's generator drained without
//     storing;
//   - mat: materialization, the driver's own hinted Collect (generation
//     included);
//   - eng: each (organization, fetch) pass through core.RunSweep over the
//     materialized stream, which must reproduce the serial op's cells
//     (mismatches counts those that do not).
type layers struct {
	serial, spans, gen, mat, eng time.Duration
	genRefs                      int64
	mismatches                   int
}

func (l layers) genNsPerRef() float64 {
	return ratio(float64(l.gen.Nanoseconds()), float64(l.genRefs))
}

func (l layers) overheadShare() float64 {
	return ratio((l.serial - l.spans).Seconds(), l.serial.Seconds())
}

// decomposeReps is how often a decomposition is repeated. Callers take each
// share within one repetition — its layers against its own serial op, run
// moments apart — and report the median over repetitions, which cancels
// most of the host's drift between them.
const decomposeReps = 5

// decompose measures one op's layers decomposeReps times.
func decompose(ctx context.Context, sweeps []experiments.Options, mixes []workload.Mix) ([]layers, error) {
	var reps []layers
	for rep := 0; rep < decomposeReps; rep++ {
		l, err := decomposeOnce(ctx, sweeps, mixes)
		if err != nil {
			return nil, err
		}
		reps = append(reps, l)
	}
	return reps, nil
}

// medianOver is the median of f over the repetitions.
func medianOver[T any](reps []T, f func(T) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func decomposeOnce(ctx context.Context, sweeps []experiments.Options, mixes []workload.Mix) (layers, error) {
	// The serial op runs before and after the layers and the two times are
	// averaged, which cancels drift of the host's speed within the
	// repetition.
	wall, spans, results, err := serialOp(ctx, sweeps, mixes)
	if err != nil {
		return layers{}, err
	}
	l, err := timeLayers(ctx, sweeps, mixes, results)
	if err != nil {
		return l, err
	}
	wall2, spans2, _, err := serialOp(ctx, sweeps, mixes)
	l.serial, l.spans = (wall+wall2)/2, (spans+spans2)/2
	return l, err
}

// serialOp runs the op on one worker under obs.NewTrace, from a collected
// heap, and returns its time, its spans' time and its results.
func serialOp(ctx context.Context, sweeps []experiments.Options, mixes []workload.Mix) (wall, spans time.Duration, results []*experiments.SweepResult, err error) {
	runtime.GC()
	for _, so := range sweeps {
		so.Workers = 1
		tctx, tr := obs.NewTrace(ctx)
		t0 := time.Now()
		res, err := experiments.SweepMixesContext(tctx, so, mixes)
		if err != nil {
			return 0, 0, nil, err
		}
		wall += time.Since(t0)
		for _, s := range tr.Summary() {
			spans += time.Duration(s.DurationMS * float64(time.Millisecond))
		}
		results = append(results, res)
	}
	return wall, spans, results, nil
}

// timeLayers times the op's layers one call at a time, from a collected
// heap, and checks every pass against the serial op's results.
func timeLayers(ctx context.Context, sweeps []experiments.Options, mixes []workload.Mix, results []*experiments.SweepResult) (layers, error) {
	var l layers
	runtime.GC()
	// The layers run in the driver's own order — every stream materialized,
	// then every pass — so the heap holds what the op's heap holds.
	for si, so := range sweeps {
		streams := make([][]trace.Ref, len(mixes))
		for mi, m := range mixes {
			d, n, err := drain(limitMix(m, so.RefLimit))
			if err != nil {
				return l, err
			}
			l.gen += d
			l.genRefs += n
			t0 := time.Now()
			if streams[mi], err = (experiments.Options{RefLimit: so.RefLimit}).CollectMixContext(ctx, m); err != nil {
				return l, err
			}
			l.mat += time.Since(t0)
		}
		for mi, m := range mixes {
			for _, c := range passCells() {
				t0 := time.Now()
				got, err := core.RunSweep(ctx, passSpec(so, m, c), trace.NewSliceReader(streams[mi]), nil, "bench", int64(len(streams[mi])))
				if err != nil {
					return l, err
				}
				l.eng += time.Since(t0)
				for zi, r := range got.Results {
					c.sweep, c.mix, c.size = si, mi, zi
					want := experiments.SimOut{Ref: r.Ref, I: r.I, D: r.D, U: r.U, CI: r.CI, H: r.H}
					if cellOf(results[si], c) != want {
						l.mismatches++
						fmt.Fprintf(errLog, "bench: decomposition: %s differs from the serial op\n", c)
					}
				}
			}
		}
	}
	return l, nil
}

// decomposeGrid reports a grid op's layers. bench.layer_coverage is the
// layers' time over the serial op's; the serial time over the window's
// two-worker median is the speedup.
func decomposeGrid(ctx context.Context, kind gridKind, mixes []workload.Mix, parallelOp float64, v values) (int, error) {
	reps, err := decompose(ctx, kind.sweeps, mixes)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, l := range reps {
		bad += l.mismatches
	}
	share := func(part func(layers) time.Duration) float64 {
		return medianOver(reps, func(l layers) float64 { return ratio(part(l).Seconds(), l.serial.Seconds()) })
	}
	v["workload.gen_ns_per_ref"] = medianOver(reps, layers.genNsPerRef)
	v["workload.gen_share"] = share(func(l layers) time.Duration { return l.gen })
	v["engine.share"] = share(func(l layers) time.Duration { return l.eng })
	v["experiments.overhead_share"] = medianOver(reps, layers.overheadShare)
	v["experiments.speedup"] = ratio(medianOver(reps, func(l layers) float64 { return l.serial.Seconds() }), parallelOp)
	v["bench.layer_coverage"] = share(func(l layers) time.Duration { return l.mat + l.eng })
	return bad, nil
}

// passCells lists the four (organization, fetch) passes of a sweep, in the
// driver's job order.
func passCells() []gridCell {
	return []gridCell{{split: true}, {split: false}, {split: true, prefetch: true}, {split: false, prefetch: true}}
}

// passSpec is the serial sweep spec the driver builds for one pass.
func passSpec(so experiments.Options, m workload.Mix, c gridCell) core.SweepSpec {
	fetch := cache.DemandFetch
	if c.prefetch {
		fetch = cache.PrefetchAlways
	}
	sizes := so.Sizes
	if len(sizes) == 0 {
		sizes = model.CacheSizes
	}
	return core.SweepSpec{
		Sizes: sizes, LineSize: 16, Split: c.split, Quantum: m.Quantum,
		Fetch: fetch, Repl: so.Repl, Victim: so.Victim, L2: so.L2,
	}
}

// limitMix caps every member of m at limit references, as the sweep
// driver's RefLimit does; 0 leaves m whole.
func limitMix(m workload.Mix, limit int) workload.Mix {
	if limit <= 0 {
		return m
	}
	specs := append([]workload.Spec(nil), m.Specs...)
	for i := range specs {
		specs[i].Refs = min(specs[i].Refs, limit)
	}
	m.Specs = specs
	return m
}

// drain times pure generation of a mix's stream: every reference produced,
// none stored.
func drain(m workload.Mix) (time.Duration, int64, error) {
	t0 := time.Now()
	rd, err := m.Open()
	if err != nil {
		return 0, 0, err
	}
	_, n, err := drainReader(rd)
	return time.Since(t0), n, err
}

// drainReader reads rd to its end without storing, timing it.
func drainReader(rd trace.Reader) (time.Duration, int64, error) {
	t0 := time.Now()
	var n int64
	for {
		_, err := rd.Read()
		if errors.Is(err, io.EOF) {
			return time.Since(t0), n, nil
		}
		if err != nil {
			return 0, 0, err
		}
		n++
	}
}

// engineCosts measures each registry engine class on the workload's own
// streams (at most microRefs of each mix): one unified pass over the paper's
// 12 sizes, timed and heap-counted alone. The classes are the spec families
// the registry routes to distinct engines at the benchmark's parent commit —
// stack inclusion, prefetch under LRU, an L2, and a non-LRU policy — and
// the metric names keep those engines' names whichever engine now serves
// the class. It also times the unhinted Collect copy the per-size engines
// make of their input.
func engineCosts(ctx context.Context, mixes []workload.Mix, microRefs int, v values) error {
	type class struct {
		name    string
		perSize bool
		spec    func(m workload.Mix) core.SweepSpec
	}
	base := func(m workload.Mix) core.SweepSpec {
		return core.SweepSpec{Sizes: model.CacheSizes, LineSize: 16, Quantum: m.Quantum}
	}
	classes := []class{
		{"multisystem", false, base},
		{"fanout", false, func(m workload.Mix) core.SweepSpec {
			s := base(m)
			s.Fetch = cache.PrefetchAlways
			return s
		}},
		{"hierarchy", true, func(m workload.Mix) core.SweepSpec {
			s := base(m)
			s.L2 = gridL2
			return s
		}},
		{"persize", true, func(m workload.Mix) core.SweepSpec {
			s := base(m)
			s.Repl = cache.ARC
			return s
		}},
	}
	streams := make([][]trace.Ref, len(mixes))
	var total int64
	for i, m := range mixes {
		rd, err := m.Open()
		if err != nil {
			return err
		}
		if streams[i], err = trace.Collect(rd, microRefs, microRefs); err != nil {
			return err
		}
		total += int64(len(streams[i]))
	}
	var copyTime time.Duration
	var copyBytes uint64
	for _, refs := range streams {
		a0 := heapAllocs()
		t0 := time.Now()
		if _, err := trace.Collect(trace.NewSliceReader(refs), 0, 0); err != nil {
			return err
		}
		copyTime += time.Since(t0)
		copyBytes += heapAllocs() - a0
	}
	v["trace.collect_copy_ns_per_ref"] = ratio(float64(copyTime.Nanoseconds()), float64(total))
	v["trace.collect_copy_bytes_per_ref"] = ratio(float64(copyBytes), float64(total))
	for _, c := range classes {
		var d time.Duration
		var bytes uint64
		for i, m := range mixes {
			spec := c.spec(m)
			a0 := heapAllocs()
			t0 := time.Now()
			if _, err := core.RunSweep(ctx, spec, trace.NewSliceReader(streams[i]), nil, "bench", int64(len(streams[i]))); err != nil {
				return fmt.Errorf("engine %s: %w", c.name, err)
			}
			d += time.Since(t0)
			bytes += heapAllocs() - a0
		}
		ns := ratio(float64(d.Nanoseconds()), float64(total))
		if c.perSize {
			v["engine."+c.name+".ns_per_refsize"] = ns / float64(len(model.CacheSizes))
		} else {
			v["engine."+c.name+".ns_per_ref"] = ns
		}
		v["engine."+c.name+".bytes_per_ref"] = ratio(float64(bytes), float64(total))
	}
	return nil
}

// zeroServiceLayers reports the HTTP-service, load-generator and job layers
// a library workload never reaches.
func zeroServiceLayers(v values) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "server.") || strings.HasPrefix(m.Name, "loadgen.") || strings.HasPrefix(m.Name, "jobs.") {
			v[m.Name] = 0
		}
	}
}
