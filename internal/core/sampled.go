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
	"time"

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

// maxLines returns the line count of the spec's largest cache — the state
// the sampling warm-up has to rebuild after each gap.
func (s SweepSpec) maxLines() int {
	max := 0
	for _, size := range s.Sizes {
		if size > max {
			max = size
		}
	}
	if s.LineSize <= 0 {
		return 1
	}
	return max / s.LineSize
}

// sampledTarget builds the fastest sound windowed target for the spec:
// the one-pass engines when their soundness argument holds, independent
// per-size systems otherwise. Purging is disabled on the target — the
// sampled driver schedules purges on the trace clock.
func sampledTarget(s SweepSpec) (sampling.Target, error) {
	switch {
	case s.StackInclusion():
		return cache.NewMultiSystem(cache.MultiConfig{
			Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
		})
	case s.Fetch == cache.PrefetchAlways && s.Repl == cache.LRU:
		return cache.NewFanoutSystem(cache.FanoutConfig{
			Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
		})
	default:
		noPurge := s
		noPurge.Quantum = 0
		cfgs := make([]cache.SystemConfig, len(s.Sizes))
		for i, size := range s.Sizes {
			cfgs[i] = noPurge.systemConfig(size)
		}
		return sampling.NewSystems(s.Sizes, cfgs)
	}
}

// sampledEngine runs the controller and assembles SizeResults with
// confidence intervals; on fallback it delegates to the exact engine the
// registry would have picked without sampling. Its Run is attached in
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
	sampledEngine.Run = func(ctx context.Context, s SweepSpec, rd trace.Reader, probe obs.Probe, stage string, total int64) (SweepOut, error) {
		// The engine rewinds the trace once per adaptive round, so it needs
		// the stream in memory; borrow the backing slice when the reader can
		// share it (the sweep layer always materializes first), collect
		// otherwise.
		refs, err := trace.Borrow(rd, int(total))
		if err != nil {
			return SweepOut{}, err
		}
		o := s.Sampled.withDefaults()
		cycle := o.CycleRefs
		if cycle == 0 {
			cycle = s.Quantum
		}
		window, align, warmFrac, initFrac := planShape(o, len(refs), s.maxLines(), cycle)
		ctrl := sampling.Controller{
			RelErrBudget:    o.ErrorBudget,
			Confidence:      o.Confidence,
			InitialFraction: initFrac,
			MaxFraction:     o.MaxFraction,
			WindowRefs:      window,
			WarmupFrac:      warmFrac,
			AlignRefs:       align,
			MaxRounds:       o.MaxRounds,
			Quantum:         s.Quantum,
			OnRound: func(round int, p sampling.Plan) func() {
				sp := obs.StartSpan(ctx, fmt.Sprintf("%s:sampled:round%d", stage, round))
				return func() { sp.AddRefs(int64(p.Window) * int64(p.Windows(len(refs)))); sp.End() }
			},
		}
		if rp, ok := probe.(obs.SampleRoundProbe); ok {
			ctrl.OnRoundDone = func(round int, a sampling.Attempt) {
				rp.SampledRound(stage, round, a.Achieved, o.ErrorBudget, a.Fraction)
			}
		}
		t0 := time.Now()
		if probe != nil {
			probe.RunStart(stage+":sampled", int64(len(refs)))
		}
		outc, err := ctrl.Run(len(refs), len(s.Sizes),
			func() trace.Reader { return trace.NewContextReader(ctx, trace.NewSliceReader(refs)) },
			func() (sampling.Target, error) { return sampledTarget(s) },
		)
		if err != nil {
			return SweepOut{}, err
		}
		info := &SampledInfo{
			ErrorBudget: o.ErrorBudget,
			Confidence:  o.Confidence,
			Rounds:      len(outc.Attempts),
			TotalRefs:   uint64(len(refs)),
		}
		var out SweepOut
		if outc.FellBack {
			// Exact fallback: strip the sampling request and run whatever
			// engine the registry picks for the rest of the spec.
			exact := s
			exact.Sampled = nil
			e := SelectEngine(exact)
			sp := obs.StartSpan(ctx, stage+":sampled:fallback:"+e.Name)
			out, err = e.Run(ctx, exact, trace.NewContextReader(ctx, trace.NewSliceReader(refs)), probe, stage, int64(len(refs)))
			sp.AddRefs(int64(len(refs)))
			sp.End()
			if err != nil {
				return SweepOut{}, err
			}
			info.FellBack = true
			info.FallbackReason = outc.Reason
			info.SimulatedRefs = outc.SimulatedRefs() + uint64(len(refs))
			info.SampledFraction = fracOf(info.SimulatedRefs, info.TotalRefs)
		} else {
			est := outc.Est
			// Line-level statistics cover only the simulated references;
			// extrapolate them to trace scale. The miss-ratio CI bounds the
			// reference-level estimates, not these.
			scale := 1.0
			if est.SimulatedRefs > 0 {
				scale = float64(est.TotalRefs) / float64(est.SimulatedRefs)
			}
			full := outc.Target.Results()
			results := make([]cache.SizeResult, len(s.Sizes))
			for i := range s.Sizes {
				e := est.PerSize[i]
				r := cache.SizeResult{
					Size: s.Sizes[i],
					Ref:  e.Ref,
					CI: &cache.MissCI{
						Level: e.CI.Level, Lo: e.CI.Lo, Hi: e.CI.Hi, Windows: est.Windows,
					},
				}
				if s.Split {
					r.I, r.D = full[i].I.Scaled(scale), full[i].D.Scaled(scale)
				} else {
					r.U = full[i].U.Scaled(scale)
				}
				results[i] = r
			}
			out = SweepOut{Results: results, Purges: outc.Target.Purges()}
			info.AchievedRelError = outc.Achieved
			info.Windows = est.Windows
			info.SimulatedRefs = outc.SimulatedRefs()
			info.CountedRefs = est.CountedRefs
			info.SampledFraction = fracOf(info.SimulatedRefs, info.TotalRefs)
		}
		out.Sampled = info
		if probe != nil {
			probe.RunEnd(stage+":sampled", int64(info.SimulatedRefs), time.Since(t0))
			if sp, ok := probe.(obs.SampleProbe); ok {
				sp.SampledRun(stage, info.ErrorBudget, info.AchievedRelError,
					info.SampledFraction, info.Rounds, info.FellBack)
			}
		}
		return out, nil
	}
}

func fracOf(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
