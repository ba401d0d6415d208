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
		serial := s
		serial.Parallel = nil
		e := SelectEngine(serial)
		var out SweepOut
		res, info, err := runParallel(ctx, sink, stage, refs, parallelPass{
			opts:    *s.Parallel,
			quantum: s.Quantum,
			random:  s.Repl == cache.Random,
			engine:  s.segmentEngine(),
			exact: exactRun{e.Name, func() (err error) {
				out, err = e.Run(ctx, serial, trace.NewContextReader(ctx, trace.NewSliceReader(refs)), sink, stage, int64(len(refs)))
				return err
			}},
		})
		if err != nil {
			return SweepOut{}, err
		}
		if res != nil {
			out = SweepOut{Results: res.Results, Purges: res.Purges}
		}
		out.Parallel = info
		return out, nil
	}
}

// parallelPass is what the parallel driver needs to know about one run
// beyond its stream.
type parallelPass struct {
	opts    ParallelOptions
	quantum int  // trace-clock purge interval
	random  bool // Random replacement: segment replicas cannot replay the serial rng
	engine  segmentEngine
	exact   exactRun // the serial run the driver delegates to
}

// runParallel is the time-parallel driver behind the parallel sweep engine
// and EvaluateParallelRefsContext. It segments refs across workers over
// replicas of p.engine and returns the spliced result with its plan; when
// no sound or worthwhile parallel plan exists it runs p.exact instead and
// returns a nil result with the reason. Either way the plan is reported to
// the sink.
func runParallel(ctx context.Context, sink obs.Sink, stage string, refs []trace.Ref, p parallelPass) (*parallel.Result, *ParallelInfo, error) {
	delegate := func(reason string) (*parallel.Result, *ParallelInfo, error) {
		if err := p.exact.run(); err != nil {
			return nil, nil, err
		}
		info := &ParallelInfo{Engine: p.exact.engine, FellBack: true, FallbackReason: reason}
		reportParallel(sink, stage, info, nil)
		return nil, info, nil
	}
	if p.opts.Workers < 2 {
		return delegate("fewer than two workers")
	}
	if p.random {
		// A segment replica cannot reproduce the serial rng sequence from
		// an arbitrary stream position, so the victim choices — and with
		// them the results — would diverge.
		return delegate("random replacement victims are not reconstructible at segment boundaries")
	}
	opts := parallel.Options{
		Workers:        p.opts.Workers,
		Budget:         p.opts.Budget,
		Quantum:        p.quantum,
		MinSegmentRefs: p.opts.MinSegmentRefs,
		CheckEvery:     p.opts.CheckEvery,
		StackState:     p.engine.stackState,
		Stage:          stage,
	}
	factory := func() (parallel.Replica, error) { return p.engine.build() }
	run := startStage(sink, stage+":parallel", len(refs))
	sp := obs.StartSpan(ctx, stage+":parallel")
	res, err := parallel.Run(ctx, refs, factory, opts, run.progress())
	sp.AddRefs(int64(len(refs)))
	sp.End()
	run.end(run.refs.Load())
	if err != nil {
		return nil, nil, err
	}
	if res.SerialReason != "" {
		return delegate(res.SerialReason)
	}
	info := parallelInfo(p.engine.name, res)
	reportParallel(sink, stage, info, &res)
	return &res, info, nil
}
