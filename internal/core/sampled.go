package core

// The sampled sweep engine: interval sampling served through the same
// registry as the exact engines. It materializes the stream once, then
// lets sampling.Controller run windowed passes over it at growing sampled
// fractions until every size's miss-ratio CI meets the error budget — or
// concludes that sampling cannot get there and delegates to the exact
// engine the registry would otherwise have picked. Exactness of the
// *counted* statistics is inherited from the engines' RefSnapshot
// contract; the statistical error is confined to what sampling skips.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/sampling"
	"cacheeval/internal/trace"
)

// SampledOptions opts a sweep into interval-sampled simulation. The zero
// ErrorBudget is the exact-degrade contract: a spec carrying options with
// budget 0 routes to the exact engines and produces bit-identical results.
type SampledOptions struct {
	// ErrorBudget is the target relative CI half-width (0.02 = ±2%).
	ErrorBudget float64
	// Confidence is the CI level; 0 means 0.95.
	Confidence float64
	// InitialFraction, MaxFraction, WindowRefs and MaxRounds tune the
	// adaptive controller; zero values take sampling.Controller defaults.
	InitialFraction float64
	MaxFraction     float64
	WindowRefs      int
	MaxRounds       int
	// CycleRefs is the workload's natural periodicity in trace references
	// (the full task-switch round of a mix: members × quantum). When set —
	// the experiments layer derives it from the mix — and the trace is
	// long enough, sampling windows align to it, starting at purge
	// boundaries with no warm-up (see planShape). Zero derives it from the
	// sweep's purge quantum.
	CycleRefs int
}

// Validate rejects options no request should carry: non-finite or
// negative budgets, budgets >= 1 (a ±100% answer is no answer), and
// out-of-range confidence levels.
func (o *SampledOptions) Validate() error {
	if o == nil {
		return nil
	}
	if math.IsNaN(o.ErrorBudget) || math.IsInf(o.ErrorBudget, 0) {
		return fmt.Errorf("core: error budget must be finite")
	}
	if o.ErrorBudget < 0 || o.ErrorBudget >= 1 {
		return fmt.Errorf("core: error budget %v must be in [0, 1)", o.ErrorBudget)
	}
	if o.Confidence != 0 && (o.Confidence <= 0 || o.Confidence >= 1) {
		return fmt.Errorf("core: confidence %v must be in (0, 1)", o.Confidence)
	}
	if o.CycleRefs < 0 {
		return fmt.Errorf("core: cycle refs %d must be >= 0", o.CycleRefs)
	}
	return nil
}

// SampledInfo reports how a sampled run went; it rides along with the
// results so servers and CLIs can surface achieved-versus-requested error.
type SampledInfo struct {
	ErrorBudget float64
	Confidence  float64
	// AchievedRelError is the final worst-size relative CI half-width
	// (0 when the run fell back: exact results have no sampling error).
	AchievedRelError float64
	// SampledFraction is the total simulation work across all adaptive
	// rounds as a fraction of the trace (1 when fallen back — plus the
	// sampling work already spent, so it can exceed 1).
	SampledFraction float64
	// Windows is the number of full windows behind the final estimate.
	Windows int
	// Rounds is how many sampled passes ran.
	Rounds int
	// FellBack reports that exact simulation produced the results;
	// FallbackReason says why sampling gave up.
	FellBack       bool
	FallbackReason string
	TotalRefs      uint64
	SimulatedRefs  uint64
	CountedRefs    uint64
}

// withDefaults mirrors sampling.Controller's defaulting for reporting.
func (o SampledOptions) withDefaults() SampledOptions {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	return o
}

// linesOf returns the line count of a cache of size bytes: the state the
// sampling warm-up has to rebuild after each gap.
func linesOf(size, lineSize int) int {
	if lineSize <= 0 {
		return 1
	}
	return size / lineSize
}

// planShape picks the window geometry and starting fraction for a trace
// of total references, a largest simulated cache of lines lines, and a
// workload cycle of cycle references (the purge/task-switch round; 0 when
// the run has no purging).
//
// Preferred shape — cycle-aligned: when the trace can afford MinWindows
// windows of one full cycle each, the window IS the cycle and the period a
// multiple of it (sampling.Controller.AlignRefs). Every window then starts
// exactly where the exact run's purge schedule empties the caches, so
// there is no stale state to warm away (zero warm-up, every simulated
// reference counted) and windows see near-identical purge transients.
//
// Fallback shape — warm-up-scaled: without a usable cycle, state is
// carried warm across gaps and each window's warm-up must rebuild
// whatever recency state the gap made stale — an amount that grows with
// the cache, not the trace. Empirically, a warm-up of twice the line
// count restores CI coverage to nominal at the largest sizes, while a
// counted tail of half the line count (floored at the classic 128) keeps
// enough misses per batch for the variance estimate. The window is
// clamped so the MinWindows-window plan still fits within maxFraction of
// the trace (shrinking warm-up and counted tail proportionally).
//
// In both shapes the starting fraction is raised to the smallest feasible
// one when the default 10% cannot yield MinWindows windows. When even
// MaxFraction cannot fit them, the defaults are returned unchanged and
// the controller's own plan check produces the exact fallback.
func planShape(o SampledOptions, total, lines, cycle int) (window, align int, warmupFrac, initFrac float64) {
	maxFrac := o.MaxFraction
	if maxFrac == 0 {
		maxFrac = 0.5
	}
	initFrac = o.InitialFraction
	raise := func(window int) float64 {
		if initFrac != 0 {
			return initFrac
		}
		f := 0.1
		// 5% slack over the exact MinWindows requirement absorbs the
		// period rounding in the controller's plan construction.
		if minF := 1.05 * float64(sampling.MinWindows*window) / float64(total); minF > f && minF < maxFrac {
			f = minF
		}
		return f
	}
	if o.WindowRefs > 0 {
		// Explicit window: honor it, keep the controller's warm-up default.
		return o.WindowRefs, 0, 0, raise(o.WindowRefs)
	}
	if cycle > 0 && 1.05*float64(sampling.MinWindows*cycle) <= maxFrac*float64(total) {
		return cycle, cycle, 0, raise(cycle)
	}
	warm := 2 * lines
	if warm < 32 {
		warm = 32
	}
	counted := lines / 2
	if counted < 128 {
		counted = 128
	}
	window = warm + counted
	if maxWindow := int(float64(total) * maxFrac / sampling.MinWindows); window > maxWindow {
		frac := float64(warm) / float64(window)
		window = maxWindow
		if window < 160 {
			window = 160 // the pre-scaling default shape (128 counted + 32 warm-up)
		}
		warm = int(frac*float64(window) + 0.5)
	}
	return window, 0, float64(warm) / float64(window), raise(window)
}

// sampledEngine runs the sampled driver over the spec's segment engine and
// scales the estimate's line-level statistics to trace scale; on fallback
// it delegates to the exact engine the registry would have picked without
// sampling. Its Run is attached in
// init(): the fallback path calls SelectEngine, whose engine list includes
// this very engine, and a package-level composite literal referencing
// SelectEngine would be an initialization cycle.
var sampledEngine = SweepEngine{
	Name: "sampled",
	Supports: func(s SweepSpec) bool {
		// Victim buffers and hierarchies are excluded (Validate rejects the
		// combination): warmup windows cannot reconstruct a victim buffer or
		// an L1-filtered L2 stream from a cold start.
		return s.Sampled != nil && s.Sampled.ErrorBudget > 0 && s.Victim == 0 && s.L2 == nil
	},
}

func init() {
	sampledEngine.Run = func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		// The engine rewinds the trace once per adaptive round, so it needs
		// the stream in memory; borrow the backing slice when the reader can
		// share it (the sweep layer always materializes first), collect
		// otherwise.
		refs, err := trace.Borrow(rd, int(total))
		if err != nil {
			return SweepOut{}, err
		}
		// Exact fallback: strip the sampling request and run whatever
		// engine the registry picks for the rest of the spec.
		exact := s
		exact.Sampled = nil
		e := SelectEngine(exact)
		var out SweepOut
		res, info, err := runSampled(ctx, sink, stage, refs, sampledPass{
			opts:    *s.Sampled,
			lines:   linesOf(slices.Max(s.Sizes), s.LineSize),
			quantum: s.Quantum,
			configs: len(s.Sizes),
			engine:  s.segmentEngine(),
			exact: exactRun{e.Name, func() (err error) {
				out, err = e.Run(ctx, exact, trace.NewContextReader(ctx, trace.NewSliceReader(refs)), sink, stage, int64(len(refs)))
				return err
			}},
		})
		if err != nil {
			return SweepOut{}, err
		}
		if res != nil {
			for i := range res.results {
				r := &res.results[i]
				r.I, r.D, r.U = r.I.Scaled(res.scale), r.D.Scaled(res.scale), r.U.Scaled(res.scale)
			}
			out = SweepOut{Results: res.results, Purges: res.target.Purges()}
		}
		out.Sampled = info
		return out, nil
	}
}

// sampledPass is what the sampled driver needs to know about one run
// beyond its stream.
type sampledPass struct {
	opts    SampledOptions
	lines   int // line count of the largest simulated cache (see planShape)
	quantum int // trace-clock purge interval, and the workload cycle unless opts sets one
	configs int // results per target
	engine  segmentEngine
	exact   exactRun // the exact run the driver falls back to
}

// sampledResult is a sampled run that met its budget. Each result's
// reference-level counters cover the counted windows and carry the
// miss-ratio CI; its line-level statistics cover the simulated references
// only, and scale (trace references per simulated one) extrapolates them.
type sampledResult struct {
	results []cache.SizeResult
	scale   float64
	target  sampling.Target // the final round's engine
}

// runSampled is the interval-sampling driver behind the sampled sweep
// engine and EvaluateSampledRefsContext: it shapes the plan, runs
// sampling.Controller's adaptive rounds over p.engine, and returns the
// estimate. When sampling cannot meet the budget it runs p.exact instead
// and returns a nil result; the SampledInfo says which happened.
func runSampled(ctx context.Context, sink obs.Sink, stage string, refs []trace.Ref, p sampledPass) (*sampledResult, *SampledInfo, error) {
	o := p.opts.withDefaults()
	cycle := o.CycleRefs
	if cycle == 0 {
		cycle = p.quantum
	}
	window, align, warmFrac, initFrac := planShape(o, len(refs), p.lines, cycle)
	ctrl := sampling.Controller{
		RelErrBudget:    o.ErrorBudget,
		Confidence:      o.Confidence,
		InitialFraction: initFrac,
		MaxFraction:     o.MaxFraction,
		WindowRefs:      window,
		WarmupFrac:      warmFrac,
		AlignRefs:       align,
		MaxRounds:       o.MaxRounds,
		Quantum:         p.quantum,
		OnRound: func(round int, pl sampling.Plan) func() {
			sp := obs.StartSpan(ctx, fmt.Sprintf("%s:sampled:round%d", stage, round))
			return func() { sp.AddRefs(int64(pl.Window) * int64(pl.Windows(len(refs)))); sp.End() }
		},
		OnRoundDone: roundReporter(sink, stage, o.ErrorBudget),
	}
	run := startStage(sink, stage+":sampled", len(refs))
	defer run.end(0) // an error return still closes the stage
	outc, err := ctrl.Run(len(refs), p.configs,
		func() trace.Reader { return trace.NewContextReader(ctx, trace.NewSliceReader(refs)) },
		func() (sampling.Target, error) { return p.engine.build() },
	)
	if err != nil {
		return nil, nil, err
	}
	info := &SampledInfo{
		ErrorBudget: o.ErrorBudget,
		Confidence:  o.Confidence,
		Rounds:      len(outc.Attempts),
		TotalRefs:   uint64(len(refs)),
	}
	var res *sampledResult
	if outc.FellBack {
		sp := obs.StartSpan(ctx, stage+":sampled:fallback:"+p.exact.engine)
		err := p.exact.run()
		sp.AddRefs(int64(len(refs)))
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		info.FellBack = true
		info.FallbackReason = outc.Reason
		info.SimulatedRefs = outc.SimulatedRefs() + uint64(len(refs))
	} else {
		est := outc.Est
		res = &sampledResult{results: outc.Target.Results(), scale: 1, target: outc.Target}
		if est.SimulatedRefs > 0 {
			res.scale = float64(est.TotalRefs) / float64(est.SimulatedRefs)
		}
		for i := range res.results {
			e := est.PerSize[i]
			res.results[i].Ref = e.Ref
			res.results[i].CI = &cache.MissCI{Level: e.CI.Level, Lo: e.CI.Lo, Hi: e.CI.Hi, Windows: est.Windows}
		}
		info.AchievedRelError = outc.Achieved
		info.Windows = est.Windows
		info.SimulatedRefs = outc.SimulatedRefs()
		info.CountedRefs = est.CountedRefs
	}
	if info.TotalRefs > 0 {
		info.SampledFraction = float64(info.SimulatedRefs) / float64(info.TotalRefs)
	}
	endSampled(run, stage, info)
	return res, info, nil
}

// roundReporter returns the controller's OnRoundDone hook, which emits each
// adaptive round as a KindSampledRound event, or nil without a sink.
func roundReporter(sink obs.Sink, stage string, budget float64) func(int, sampling.Attempt) {
	if sink == nil {
		return nil
	}
	return func(round int, a sampling.Attempt) {
		sink.Observe(obs.Event{
			Kind: obs.KindSampledRound, Stage: stage, Round: round,
			Achieved: a.Achieved, Budget: budget, Fraction: a.Fraction,
		})
	}
}

// endSampled closes a sampled pass: its run's end event, then its verdict.
func endSampled(run *stageRun, stage string, info *SampledInfo) {
	run.end(int64(info.SimulatedRefs))
	if run.sink != nil {
		run.sink.Observe(obs.Event{
			Kind: obs.KindSampledRun, Stage: stage, Budget: info.ErrorBudget,
			Achieved: info.AchievedRelError, Fraction: info.SampledFraction,
			Rounds: info.Rounds, FellBack: info.FellBack,
		})
	}
}
