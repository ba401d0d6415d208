package core

// The time-parallel sweep engine: exact simulation served through the same
// registry as the serial engines. It materializes the stream once, splits
// it into contiguous segments simulated concurrently by internal/parallel,
// and splices the reconciled per-segment deltas into totals bit-identical
// to the serial engines — the registry's capability contract, not an
// approximation. When no sound or worthwhile parallel plan exists (random
// replacement, a short stream, an exhausted worker budget, a stack-state
// target without purge boundaries) it delegates to the serial engine the
// registry would otherwise have picked and reports why.

import (
	"context"
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/parallel"
	"cacheeval/internal/sampling"
	"cacheeval/internal/trace"
)

// ParallelOptions opts a sweep into time-parallel simulation. Workers < 2
// keeps the serial engines: there is nothing to parallelize.
type ParallelOptions struct {
	// Workers caps the segments simulated concurrently, including the
	// calling goroutine.
	Workers int
	// Budget, when non-nil, is the shared pool segment workers draw from
	// (see parallel.Budget); the experiments layer passes its job-level
	// pool here so nested parallelism cannot oversubscribe. Nil gives the
	// run a private budget of Workers.
	Budget *parallel.Budget
	// MinSegmentRefs overrides the minimum references per segment; zero
	// means parallel.DefaultMinSegmentRefs. Tests shrink it to exercise
	// segmentation on short streams.
	MinSegmentRefs int
	// CheckEvery overrides the reconciliation state-comparison cadence;
	// zero takes the package default.
	CheckEvery int
}

// Validate rejects option values no request should carry.
func (o *ParallelOptions) Validate() error {
	if o == nil {
		return nil
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: parallel workers %d must be >= 0", o.Workers)
	}
	if o.MinSegmentRefs < 0 {
		return fmt.Errorf("core: parallel min segment refs %d must be >= 0", o.MinSegmentRefs)
	}
	if o.CheckEvery < 0 {
		return fmt.Errorf("core: parallel check cadence %d must be >= 0", o.CheckEvery)
	}
	return nil
}

// ParallelInfo reports how a time-parallel run went; it rides along with
// the results so servers and CLIs can surface the plan and the
// reconciliation cost.
type ParallelInfo struct {
	// Engine is the replica engine the segments ran ("multisystem",
	// "fanout", "persize") or, when FellBack, the serial engine that
	// produced the results.
	Engine string
	// Segments is the number of concurrently simulated segments.
	Segments int
	// Aligned reports a purge-aligned plan: segment boundaries cut at
	// trace-clock purges, where the speculative start state is exactly
	// the true (empty) one and no reconciliation is needed.
	Aligned bool
	// Boundaries is the number of segment boundaries (Segments-1);
	// Converged counts those whose speculative state provably reached the
	// true state before segment end (always all of them when Aligned).
	Boundaries int
	Converged  int
	// MaxConvergenceRefs and TotalConvergenceRefs measure the
	// reconciliation re-simulation: the worst single boundary and the sum
	// across boundaries, in references.
	MaxConvergenceRefs   int
	TotalConvergenceRefs uint64
	// FellBack reports that a serial engine produced the results;
	// FallbackReason says why the parallel plan was rejected.
	FellBack       bool
	FallbackReason string
}

// parallelInfo folds a parallel run result into its report.
func parallelInfo(engine string, res parallel.Result) *ParallelInfo {
	info := &ParallelInfo{
		Engine:     engine,
		Segments:   res.Segments,
		Aligned:    res.Aligned,
		Boundaries: len(res.Boundaries),
	}
	for _, b := range res.Boundaries {
		if b.Converged {
			info.Converged++
		}
		if b.Distance > info.MaxConvergenceRefs {
			info.MaxConvergenceRefs = b.Distance
		}
		info.TotalConvergenceRefs += uint64(b.Distance)
	}
	return info
}

// reportParallel emits a run's plan and, when it segmented, one event per
// reconciled boundary.
func reportParallel(sink obs.Sink, stage string, info *ParallelInfo, res *parallel.Result) {
	if sink == nil {
		return
	}
	sink.Observe(obs.Event{
		Kind: obs.KindParallelRun, Stage: stage, Segments: info.Segments,
		Aligned: info.Aligned, FellBack: info.FellBack, Reason: info.FallbackReason,
	})
	if res != nil {
		for _, b := range res.Boundaries {
			sink.Observe(obs.Event{
				Kind: obs.KindParallelBoundary, Stage: stage,
				Distance: int64(b.Distance), Converged: b.Converged,
			})
		}
	}
}

// parallelTarget builds the replica factory for the fastest sound segment
// engine: the same selection ladder as the serial registry, minus the
// purge schedule (the parallel driver replays purges on the trace clock).
// stackState marks the Mattson engine, whose speculative state cannot
// converge without purge boundaries.
func parallelTarget(s SweepSpec) (factory func() (parallel.Replica, error), engine string, stackState bool) {
	switch {
	case s.StackInclusion():
		return func() (parallel.Replica, error) {
			ms, err := cache.NewMultiSystem(cache.MultiConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
			if err != nil {
				return nil, err
			}
			return multiReplica{ms}, nil
		}, multiEngine.Name, true
	case s.Fetch == cache.PrefetchAlways && s.Repl == cache.LRU:
		return func() (parallel.Replica, error) {
			fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
			if err != nil {
				return nil, err
			}
			return fanReplica{fs}, nil
		}, fanoutEngine.Name, false
	default:
		noPurge := s
		noPurge.Quantum = 0
		cfgs := make([]cache.SystemConfig, len(s.Sizes))
		for i, size := range s.Sizes {
			cfgs[i] = noPurge.systemConfig(size)
		}
		return func() (parallel.Replica, error) {
			g, err := sampling.NewSystems(s.Sizes, cfgs)
			if err != nil {
				return nil, err
			}
			return sysReplica{g, len(cfgs)}, nil
		}, perSizeEngine.Name, false
	}
}

// multiReplica adapts the one-pass stack engine. Results must not consume
// the engine (the reconciliation chain snapshots mid-stream), so it maps
// to ResultsSnapshot rather than the finishing Results.
type multiReplica struct{ *cache.MultiSystem }

func (r multiReplica) Results() []cache.SizeResult { return r.ResultsSnapshot() }
func (r multiReplica) StateEqual(o parallel.Replica) bool {
	return r.MultiSystem.StateEqual(o.(multiReplica).MultiSystem)
}

// fanReplica adapts the prefetch fanout engine, whose Results is already a
// pure snapshot.
type fanReplica struct{ *cache.FanoutSystem }

func (r fanReplica) StateEqual(o parallel.Replica) bool {
	return r.FanoutSystem.StateEqual(o.(fanReplica).FanoutSystem)
}

// sysReplica adapts the universal per-size group.
type sysReplica struct {
	*sampling.Systems
	n int
}

func (r sysReplica) StateEqual(o parallel.Replica) bool {
	b := o.(sysReplica)
	for i := 0; i < r.n; i++ {
		if !r.System(i).StateEqual(b.System(i)) {
			return false
		}
	}
	return true
}

// parallelEngine segments the stream across workers and reconciles to
// bit-identical totals. Its Run is attached in init() for the same reason
// as the sampled engine's: the serial-delegation path calls SelectEngine,
// whose engine list includes this engine.
var parallelEngine = SweepEngine{
	Name: "parallel",
	Supports: func(s SweepSpec) bool {
		// Victim buffers and hierarchies are excluded (Validate rejects the
		// combination): segment replicas would have to converge vbuf and L2
		// state too, which the reconciliation machinery does not model.
		return s.Parallel != nil && s.Parallel.Workers > 1 && s.Victim == 0 && s.L2 == nil
	},
}

func init() {
	parallelEngine.Run = func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		refs, err := trace.Borrow(rd, int(total))
		if err != nil {
			return SweepOut{}, err
		}
		po := *s.Parallel
		delegate := func(reason string) (SweepOut, error) {
			serial := s
			serial.Parallel = nil
			e := SelectEngine(serial)
			out, err := e.Run(ctx, serial, trace.NewContextReader(ctx, trace.NewSliceReader(refs)), sink, stage, int64(len(refs)))
			if err != nil {
				return SweepOut{}, err
			}
			out.Parallel = &ParallelInfo{Engine: e.Name, FellBack: true, FallbackReason: reason}
			reportParallel(sink, stage, out.Parallel, nil)
			return out, nil
		}
		if s.Repl == cache.Random {
			// A segment replica cannot reproduce the serial rng sequence from
			// an arbitrary stream position, so the victim choices — and with
			// them the results — would diverge.
			return delegate("random replacement victims are not reconstructible at segment boundaries")
		}
		factory, engine, stackState := parallelTarget(s)
		opts := parallel.Options{
			Workers:        po.Workers,
			Budget:         po.Budget,
			Quantum:        s.Quantum,
			MinSegmentRefs: po.MinSegmentRefs,
			CheckEvery:     po.CheckEvery,
			StackState:     stackState,
			Stage:          stage,
		}
		run := startStage(sink, stage+":parallel", len(refs))
		res, err := parallel.Run(ctx, refs, factory, opts, run.progress())
		run.end(run.refs.Load())
		if err != nil {
			return SweepOut{}, err
		}
		if res.SerialReason != "" {
			return delegate(res.SerialReason)
		}
		info := parallelInfo(engine, res)
		reportParallel(sink, stage, info, &res)
		return SweepOut{Results: res.Results, Purges: res.Purges, Parallel: info}, nil
	}
}

// EvaluateParallelRefsContext is EvaluateRefsContext with time-parallel
// simulation: the single-design analogue of the sweep engine, for callers
// holding a materialized stream (the evaluation service, cachesim
// -parallel). Results are bit-identical to the serial path; the returned
// ParallelInfo reports the plan, or why the run stayed serial. 3C miss
// attribution (obs.KindMissCauses) is not available on the parallel path:
// segment replicas would misattribute each other's compulsory misses, so
// replicas carry no sink.
func EvaluateParallelRefsContext(ctx context.Context, design cache.SystemConfig, name string, refs []trace.Ref, po *ParallelOptions) (Report, *ParallelInfo, error) {
	if err := po.Validate(); err != nil {
		return Report{}, nil, err
	}
	sink := obs.SinkFrom(ctx)
	stage := "simulate:" + name
	serial := func(reason string) (Report, *ParallelInfo, error) {
		rep, err := EvaluateRefsContext(ctx, design, name, refs)
		if err != nil {
			return Report{}, nil, err
		}
		info := &ParallelInfo{Engine: "system", FellBack: true, FallbackReason: reason}
		reportParallel(sink, stage, info, nil)
		return rep, info, nil
	}
	if po == nil || po.Workers < 2 {
		return serial("fewer than two workers")
	}
	if err := design.Validate(); err != nil {
		return Report{}, nil, err
	}
	if replOf(design) == cache.Random {
		return serial("random replacement victims are not reconstructible at segment boundaries")
	}
	noPurge := design
	noPurge.PurgeInterval = 0
	size := sizeOf(design)
	factory := func() (parallel.Replica, error) {
		g, err := sampling.NewSystems([]int{size}, []cache.SystemConfig{noPurge})
		if err != nil {
			return nil, err
		}
		return sysReplica{g, 1}, nil
	}
	opts := parallel.Options{
		Workers:        po.Workers,
		Budget:         po.Budget,
		Quantum:        design.PurgeInterval,
		MinSegmentRefs: po.MinSegmentRefs,
		CheckEvery:     po.CheckEvery,
		Stage:          stage,
	}
	run := startStage(sink, stage+":parallel", len(refs))
	sp := obs.StartSpan(ctx, stage)
	res, err := parallel.Run(ctx, refs, factory, opts, run.progress())
	sp.AddRefs(int64(len(refs)))
	sp.End()
	run.end(run.refs.Load())
	if err != nil {
		return Report{}, nil, fmt.Errorf("core: evaluating %s: %w", name, err)
	}
	if res.SerialReason != "" {
		return serial(res.SerialReason)
	}
	info := parallelInfo("persize", res)
	reportParallel(sink, stage, info, &res)
	return assembleReport(design, name, refs, res.Results[0]), info, nil
}

// assembleReport derives the evaluation figures of merit from one spliced
// SizeResult, mirroring evaluateReader's arithmetic over a live System.
func assembleReport(design cache.SystemConfig, name string, refs []trace.Ref, r cache.SizeResult) Report {
	var all, dataStats cache.Stats
	if design.Split {
		all.Add(r.I)
		all.Add(r.D)
		dataStats = r.D
	} else {
		all = r.U
		dataStats = r.U
	}
	// The processor-request byte count a cacheless system would transfer,
	// accumulated exactly as System.Ref does.
	var refBytes uint64
	for _, ref := range refs {
		size := uint64(ref.Size)
		if size < 1 {
			size = 1
		}
		refBytes += size
	}
	traffic := 0.0
	if refBytes > 0 {
		traffic = float64(all.MemoryTraffic()) / float64(refBytes)
	}
	rs := r.Ref
	return Report{
		Design:            design,
		Workload:          name,
		Refs:              rs.TotalRefs(),
		MissRatio:         rs.MissRatio(),
		InstrMiss:         rs.KindMissRatio(trace.IFetch),
		DataMiss:          rs.DataMissRatio(),
		ReadMiss:          rs.KindMissRatio(trace.Read),
		WriteMiss:         rs.KindMissRatio(trace.Write),
		BytesFromMemory:   all.BytesFromMemory,
		BytesToMemory:     all.BytesToMemory,
		TrafficRatio:      traffic,
		DirtyPushFraction: dataStats.FracPushesDirty(),
		PrefetchAccuracy:  all.PrefetchAccuracy(),
	}
}

// replOf returns the replacement policy of the design's active cache(s);
// split designs use the same policy on both sides in this repository, but
// Random on either side disqualifies the parallel path.
func replOf(design cache.SystemConfig) cache.Replacement {
	if design.Split {
		if design.I.Repl == cache.Random || design.D.Repl == cache.Random {
			return cache.Random
		}
		return design.I.Repl
	}
	return design.Unified.Repl
}

// sizeOf returns the size label for the design's single-entry result.
func sizeOf(design cache.SystemConfig) int {
	if design.Split {
		return design.I.Size + design.D.Size
	}
	return design.Unified.Size
}
