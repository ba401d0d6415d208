// Package core is the paper's contribution as a library: a cache-evaluation
// engine that ties the synthetic workload corpus, the trace-driven cache
// simulator, and the §4 estimation machinery together behind a small API.
//
// The three entry points mirror how the paper expects a designer to work:
//
//   - Evaluate runs one cache design against one workload and reports the
//     figures of merit the paper tracks (miss ratios, memory traffic, the
//     [Hil84] traffic ratio, write-back behaviour).
//   - DesignTargets derives conservative design-estimate miss ratios from
//     the corpus using the §4.1 percentile rule.
//   - Recommend applies the introduction's cost/performance argument to a
//     sweep of designs and picks the one with the best performance per cost.
package core

import (
	"context"
	"fmt"
	"sort"

	"cacheeval/internal/cache"
	"cacheeval/internal/model"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// Report is the outcome of evaluating one cache design against one
// workload.
type Report struct {
	Design   cache.SystemConfig
	Workload string
	Refs     uint64

	MissRatio float64 // overall, reference level
	InstrMiss float64
	DataMiss  float64
	ReadMiss  float64
	WriteMiss float64

	BytesFromMemory uint64
	BytesToMemory   uint64
	// TrafficRatio is memory traffic with the cache over traffic without it
	// ([Hil84]); the paper's conclusion warns it "needs to be carefully
	// watched" — prefetching can push it up even as the miss ratio falls.
	TrafficRatio float64

	// DirtyPushFraction is the Table 3 statistic for the cache serving data
	// references (the data cache when split, the unified cache otherwise).
	DirtyPushFraction float64
	// PrefetchAccuracy is the fraction of prefetched lines used before
	// being pushed (0 when prefetch is off).
	PrefetchAccuracy float64

	// VictimHits counts misses served by a victim buffer without a memory
	// fetch (0 when the design has no buffer).
	VictimHits uint64
	// Hierarchy carries the L2 side of a two-level evaluation; nil for
	// single-level designs.
	Hierarchy *HierarchyReport
}

// HierarchyReport is the L2 block of a two-level evaluation: the event
// counts over the L1-filtered stream and the miss ratios the hierarchy
// literature tracks — local (over the stream the L2 actually saw) and
// global (the fraction of L1 accesses that went all the way to memory).
type HierarchyReport struct {
	L2Design cache.Config

	L2Fetches     uint64
	L2FetchMisses uint64
	L2Writes      uint64
	L2WriteMisses uint64

	L2LocalMissRatio float64
	L2FetchMissRatio float64
	GlobalMissRatio  float64
}

// Evaluate runs the workload mix through the design and reports the
// paper's figures of merit. A non-positive refLimit runs the mix in full.
func Evaluate(design cache.SystemConfig, mix workload.Mix, refLimit int) (Report, error) {
	return EvaluateContext(context.Background(), design, mix, refLimit)
}

// EvaluateContext is Evaluate with cancellation: the simulation aborts
// shortly after ctx is done, returning an error wrapping ctx.Err() (check
// with errors.Is against context.Canceled or context.DeadlineExceeded).
// The design reads the mix's generator directly; no stream is
// materialized.
func EvaluateContext(ctx context.Context, design cache.SystemConfig, mix workload.Mix, refLimit int) (Report, error) {
	return evaluateMix(ctx, design, nil, mix, refLimit)
}

// EvaluateHierarchyContext is EvaluateContext for a two-level design. The
// Report's reference-level figures describe the processor's view (the L1);
// the traffic figures describe the true memory interface (the L2's outer
// side); the Hierarchy block carries the L2 event counts and miss ratios.
func EvaluateHierarchyContext(ctx context.Context, hc cache.HierarchyConfig, mix workload.Mix, refLimit int) (Report, error) {
	return evaluateMix(ctx, hc.L1, &hc.L2, mix, refLimit)
}

// evaluateMix evaluates design (in front of l2 when l2 is non-nil) over
// the mix's generator, capped at refLimit references in total when
// refLimit is positive.
func evaluateMix(ctx context.Context, design cache.SystemConfig, l2 *cache.Config, mix workload.Mix, refLimit int) (Report, error) {
	rd, err := mix.Open()
	if err != nil {
		return Report{}, err
	}
	if refLimit > 0 {
		rd = trace.NewLimitReader(rd, refLimit)
	}
	return evaluate(ctx, design, l2, mix.Name, rd)
}

// EvaluateRefsContext evaluates a design against an already-materialized
// reference stream, skipping workload synthesis entirely.
func EvaluateRefsContext(ctx context.Context, design cache.SystemConfig, name string, refs []trace.Ref) (Report, error) {
	return evaluate(ctx, design, nil, name, trace.NewSliceReader(refs))
}

// evaluate is the exact single-design evaluation: it runs design — in
// front of l2 when l2 is non-nil — over rd and reports the result.
func evaluate(ctx context.Context, design cache.SystemConfig, l2 *cache.Config, name string, rd trace.Reader) (Report, error) {
	sim, err := newSizeSim(design, l2)
	if err != nil {
		return Report{}, err
	}
	stage := "simulate:" + name
	sp := obs.StartSpan(ctx, stage)
	st := openSizeSim(sim, obs.SinkFrom(ctx), stage, 0)
	_, err = st.Close(Feed(ctx, rd, st))
	sp.AddRefs(st.n)
	sp.End()
	if err != nil {
		return Report{}, fmt.Errorf("core: evaluating %s: %w", name, err)
	}
	return newReport(design, l2, name, sim.SizeResult(sizeOf(design)), sim.RefBytes()), nil
}

// newReport derives the figures of merit of design — in front of l2 when
// l2 is non-nil — from its result r: the reference-level figures from r's
// processor view, the traffic figures from the memory interface (the L2's
// outer side in a hierarchy). refBytes is the processor-request bytes a
// cacheless system would move: the traffic ratio's denominator.
func newReport(design cache.SystemConfig, l2 *cache.Config, name string, r cache.SizeResult, refBytes uint64) Report {
	all, data := r.U, r.U
	if design.Split {
		all = cache.Stats{}
		all.Add(r.I)
		all.Add(r.D)
		data = r.D
	}
	mem := all
	if l2 != nil {
		mem = r.H.U
	}
	traffic := 0.0
	if refBytes > 0 {
		traffic = float64(mem.MemoryTraffic()) / float64(refBytes)
	}
	rs := r.Ref
	rep := Report{
		Design:            design,
		Workload:          name,
		Refs:              rs.TotalRefs(),
		MissRatio:         rs.MissRatio(),
		InstrMiss:         rs.KindMissRatio(trace.IFetch),
		DataMiss:          rs.DataMissRatio(),
		ReadMiss:          rs.KindMissRatio(trace.Read),
		WriteMiss:         rs.KindMissRatio(trace.Write),
		BytesFromMemory:   mem.BytesFromMemory,
		BytesToMemory:     mem.BytesToMemory,
		TrafficRatio:      traffic,
		DirtyPushFraction: data.FracPushesDirty(),
		PrefetchAccuracy:  all.PrefetchAccuracy(),
		VictimHits:        all.VictimHits,
	}
	if l2 != nil {
		ev := r.H.Ev
		global := 0.0
		if all.Accesses > 0 {
			global = float64(ev.FetchMisses) / float64(all.Accesses)
		}
		rep.Hierarchy = &HierarchyReport{
			L2Design:         *l2,
			L2Fetches:        ev.Fetches,
			L2FetchMisses:    ev.FetchMisses,
			L2Writes:         ev.Writes,
			L2WriteMisses:    ev.WriteMisses,
			L2LocalMissRatio: ev.LocalMissRatio(),
			L2FetchMissRatio: ev.FetchMissRatio(),
			GlobalMissRatio:  global,
		}
	}
	return rep
}

// sizeOf returns the size label of the design's single result: the total
// of both caches when split.
func sizeOf(design cache.SystemConfig) int {
	if design.Split {
		return design.I.Size + design.D.Size
	}
	return design.Unified.Size
}

// EvaluateSpec evaluates a single corpus trace (wrapping it as a
// single-program mix with its architecture's purge quantum).
func EvaluateSpec(design cache.SystemConfig, spec workload.Spec, refLimit int) (Report, error) {
	arch, err := workload.ArchByID(spec.Arch)
	if err != nil {
		return Report{}, err
	}
	mix := workload.Mix{Name: spec.Name, Specs: []workload.Spec{spec}, Quantum: arch.PurgeInterval}
	return Evaluate(design, mix, refLimit)
}

// DesignTarget is a conservative miss-ratio estimate at one cache size.
type DesignTarget struct {
	Size    int
	Unified float64
}

// DesignTargets derives design-estimate miss ratios across the full corpus
// at the given sizes using the §4.1 percentile rule (85th percentile of the
// per-trace distribution, Table 1 configuration). Each trace is one
// RunSweep pass, which selects the one-pass stack engine; sizes must be
// powers of two at least one line long. A non-positive refLimit uses each
// trace's paper run length.
func DesignTargets(sizes []int, lineSize, refLimit int) ([]DesignTarget, error) {
	if len(sizes) == 0 {
		sizes = model.CacheSizes
	}
	if lineSize == 0 {
		lineSize = 16
	}
	spec := SweepSpec{Sizes: sizes, LineSize: lineSize}
	perSize := make([][]float64, len(sizes))
	for _, unit := range workload.Units() {
		rd, err := unit.Open()
		if err != nil {
			return nil, err
		}
		if refLimit > 0 {
			rd = trace.NewLimitReader(rd, refLimit)
		}
		out, err := RunSweep(context.Background(), spec, rd, nil, "", 0)
		if err != nil {
			return nil, err
		}
		for i, r := range out.Results {
			perSize[i] = append(perSize[i], r.Ref.MissRatio())
		}
	}
	out := make([]DesignTarget, len(sizes))
	for i, size := range sizes {
		out[i] = DesignTarget{Size: size, Unified: model.DesignEstimate(perSize[i])}
	}
	return out, nil
}

// PublishedTargets returns the paper's Table 5 design targets for designers
// who want the published numbers rather than re-derived ones.
func PublishedTargets() []model.TargetRow { return model.DesignTargets() }

// CostModel prices a cache design and converts miss ratios into machine
// performance, the introduction's framing: a bigger cache buys hit ratio,
// but "the higher performing cache [may not be] cost effective".
type CostModel struct {
	// BaseCost is the cost of the CPU without any cache, in arbitrary units.
	BaseCost float64
	// CostPerKB is the incremental cost per kilobyte of cache.
	CostPerKB float64
	// HitCycles and MissCycles are the access times in processor cycles; a
	// reference costs HitCycles plus MissCycles on a miss.
	HitCycles  float64
	MissCycles float64
}

// DefaultCostModel returns a model loosely calibrated to the
// introduction's example (halving a high miss ratio buys ~50% performance;
// pushing 98% hit to 99% buys very little at high relative cost).
func DefaultCostModel() CostModel {
	return CostModel{BaseCost: 100, CostPerKB: 2, HitCycles: 1, MissCycles: 10}
}

// Performance returns relative machine performance (bigger is better) for
// a given miss ratio: the reciprocal of mean cycles per reference.
func (cm CostModel) Performance(missRatio float64) float64 {
	return 1 / (cm.HitCycles + missRatio*cm.MissCycles)
}

// Cost returns the machine cost with a cache of the given total size.
func (cm CostModel) Cost(cacheBytes int) float64 {
	return cm.BaseCost + cm.CostPerKB*float64(cacheBytes)/1024
}

// Candidate is one evaluated design point in a recommendation sweep.
type Candidate struct {
	Size        int
	MissRatio   float64
	Performance float64
	Cost        float64
	// Value is performance per unit cost, the selection criterion.
	Value float64
}

// Recommend evaluates the workload at each cache size (fully associative,
// LRU, demand, 16-byte lines, the architecture's purge quantum) and returns
// all candidates sorted by size plus the index of the best value. It
// returns an error for an empty size list or a failing simulation.
//
// The size sweep is a single pass over the stream (see RecommendFetch).
func Recommend(mix workload.Mix, sizes []int, cm CostModel, refLimit int) ([]Candidate, int, error) {
	return RecommendFetch(mix, sizes, cm, refLimit, cache.DemandFetch)
}

// RecommendFetch is Recommend with a caller-chosen fetch policy. The
// engine registry (RunSweep) picks the fastest sound engine: demand-LRU
// caches obey stack inclusion, so generalized stack simulation
// (cache.MultiSystem) yields every size's miss ratio in one pass;
// prefetch-always fans one decoded stream out to per-size caches
// (cache.FanoutSystem); any other policy runs one cache per size. Either
// way the results are bit-identical to per-size Evaluate runs.
func RecommendFetch(mix workload.Mix, sizes []int, cm CostModel, refLimit int, fetch cache.FetchPolicy) ([]Candidate, int, error) {
	return RecommendSpec(mix, sizes, cm, refLimit, fetch, cache.LRU)
}

// RecommendSpec is RecommendFetch with a caller-chosen replacement policy
// as well — the full sweep specification the registry routes on.
func RecommendSpec(mix workload.Mix, sizes []int, cm CostModel, refLimit int, fetch cache.FetchPolicy, repl cache.Replacement) ([]Candidate, int, error) {
	if len(sizes) == 0 {
		return nil, -1, fmt.Errorf("core: no sizes to evaluate")
	}
	sizes = append([]int(nil), sizes...)
	sort.Ints(sizes)
	rd, err := mix.Open()
	if err != nil {
		return nil, -1, err
	}
	var lim trace.Reader = rd
	if refLimit > 0 {
		lim = trace.NewLimitReader(rd, refLimit)
	}
	spec := SweepSpec{
		Sizes: sizes, LineSize: 16, Quantum: mix.Quantum,
		Fetch: fetch, Repl: repl,
	}
	out, err := RunSweep(context.Background(), spec, lim, nil, "recommend:"+mix.Name, 0)
	if err != nil {
		return nil, -1, fmt.Errorf("core: evaluating %s: %w", mix.Name, err)
	}
	candidates := make([]Candidate, len(sizes))
	for i, r := range out.Results {
		miss := r.Ref.MissRatio()
		perf := cm.Performance(miss)
		cost := cm.Cost(r.Size)
		candidates[i] = Candidate{
			Size: r.Size, MissRatio: miss,
			Performance: perf, Cost: cost, Value: perf / cost,
		}
	}
	best := 0
	for i, c := range candidates {
		if c.Value > candidates[best].Value {
			best = i
		}
	}
	return candidates, best, nil
}

// TransferEstimate applies the §4 fudge factors: estimate a design's miss
// ratio under workload class `to` from a measurement under class `from`.
func TransferEstimate(measured float64, from, to model.WorkloadClass) (float64, error) {
	return model.EstimateMissRatio(measured, from, to)
}

// Summary of a report for quick printing.
func (r Report) Summary() string {
	return fmt.Sprintf(
		"%s: refs=%d miss=%.4f (i=%.4f d=%.4f) traffic=%.3f dirty=%.2f",
		r.Workload, r.Refs, r.MissRatio, r.InstrMiss, r.DataMiss,
		r.TrafficRatio, r.DirtyPushFraction)
}
