package experiments

import (
	"context"
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// SimOut captures one simulation's results: reference-level statistics plus
// per-cache line-level statistics (I and D for split organizations, U for
// unified). CI is the miss-ratio confidence interval when the pass ran
// under the sampled engine; exact passes leave it nil. H carries the L2
// side of a two-level sweep (Options.L2); single-level passes leave it
// zero.
type SimOut struct {
	Ref     cache.RefStats
	I, D, U cache.Stats
	CI      *cache.MissCI
	H       cache.HierResult
}

// SweepCell holds the four §3.3-§3.5 simulations of one workload at one
// cache size: split and unified organizations, each with demand fetch and
// with prefetch-always.
type SweepCell struct {
	SplitDemand     SimOut
	SplitPrefetch   SimOut
	UnifiedDemand   SimOut
	UnifiedPrefetch SimOut
}

// SweepResult is the master dataset behind Table 3, Figures 3-10 and
// Table 4: every standard workload mix, swept across cache sizes, under the
// paper's multiprogramming regime (round-robin task switching with cache
// purges every quantum; fully associative, LRU, copy-back, 16-byte lines).
type SweepResult struct {
	Sizes []int
	Mixes []workload.Mix
	Cells [][]SweepCell // [mix][size]
	// Sampled records per-pass sampling metadata (one entry per grid job
	// that ran under the sampled engine); empty for exact sweeps.
	Sampled []SampledPass
	// Parallel records per-pass time-parallel metadata (one entry per grid
	// job whose spec requested parallel simulation, whether it segmented
	// or fell back to a serial engine); empty when Workers grants no
	// within-job parallelism. The simulated results are bit-identical
	// either way — only this metadata depends on the plan, and under a
	// contended shared budget the segment counts may vary run to run.
	Parallel []ParallelPass
	opts     Options
}

// SampledPass identifies one sampled grid pass and its outcome: which
// (mix, organization, fetch policy) job it was and what the adaptive
// controller achieved (or why it fell back to exact simulation).
type SampledPass struct {
	Mix      string
	Split    bool
	Prefetch bool
	Info     core.SampledInfo
}

// ParallelPass identifies one grid pass that requested time-parallel
// simulation and reports its plan (see core.ParallelInfo).
type ParallelPass struct {
	Mix      string
	Split    bool
	Prefetch bool
	Info     core.ParallelInfo
}

// Sweep runs the full §3.3-§3.5 simulation grid: the sixteen Table 3
// workload units plus the M68000 assortment (which the prefetch figures
// include, with its 15,000-reference quantum).
func Sweep(o Options) (*SweepResult, error) {
	return SweepContext(context.Background(), o)
}

// SweepContext is Sweep with cancellation: the grid aborts shortly after
// ctx is done, returning an error wrapping ctx.Err().
func SweepContext(ctx context.Context, o Options) (*SweepResult, error) {
	o = o.withDefaults()
	mixes := append(workload.StandardMixes(), workload.M68000Mix())
	return SweepMixesContext(ctx, o, mixes)
}

// SweepMixes runs the sweep grid over a caller-chosen set of mixes.
func SweepMixes(o Options, mixes []workload.Mix) (*SweepResult, error) {
	return SweepMixesContext(context.Background(), o, mixes)
}

// SweepMixesContext is SweepMixes with cancellation. Cancellation is
// honoured both between grid jobs (no new job starts once ctx is done)
// and inside one (each simulation's reference stream is context-checked),
// so even a single-cell sweep over a long trace aborts promptly.
//
// Every grid job routes through the engine capability registry
// (core.RunSweep), which picks the fastest engine that is sound for the
// job's configuration: under LRU (the default), the demand half runs one
// generalized stack-simulation pass per (mix, organization)
// (cache.MultiSystem) and the prefetch half one fan-out pass
// (cache.FanoutSystem); a non-LRU Options.Repl breaks stack inclusion, so
// the registry transparently falls back to one cache per size. All routes
// are bit-identical to the per-size simulations they replace.
func SweepMixesContext(ctx context.Context, o Options, mixes []workload.Mix) (*SweepResult, error) {
	o = o.withDefaults()
	res := &SweepResult{Sizes: o.Sizes, Mixes: mixes, opts: o}
	// Materialize each mix's reference stream once; the grid re-reads it
	// from memory for every job.
	streams := make([][]trace.Ref, len(mixes))
	err := o.forEachCtx(ctx, len(mixes), func(i int) error {
		sp := obs.StartSpan(ctx, "materialize:"+mixes[i].Name)
		refs, err := o.collectMixCtx(ctx, mixes[i])
		if err != nil {
			sp.End()
			return fmt.Errorf("sweep %s: %w", mixes[i].Name, err)
		}
		streams[i] = refs
		sp.AddRefs(int64(len(refs)))
		sp.End()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = make([][]SweepCell, len(mixes))
	for i := range res.Cells {
		res.Cells[i] = make([]SweepCell, len(o.Sizes))
	}
	// Job list: per mix, one all-sizes pass per (fetch policy,
	// organization). Each job writes only its own cell fields, so results
	// are bit-identical regardless of the worker count.
	type job struct {
		mi       int
		split    bool
		prefetch bool
	}
	var jobs []job
	for mi := range mixes {
		jobs = append(jobs,
			job{mi, true, false}, job{mi, false, false},
			job{mi, true, true}, job{mi, false, true})
	}
	// Each job writes only its own slot, so sampled-pass metadata stays
	// deterministic (job order) regardless of the worker count.
	passes := make([]*SampledPass, len(jobs))
	parPasses := make([]*ParallelPass, len(jobs))
	err = o.forEachCtx(ctx, len(jobs), func(j int) error {
		jb := jobs[j]
		mix, refs := mixes[jb.mi], streams[jb.mi]
		out, err := runPass(ctx, o, mix, refs, jb.split, jb.prefetch, res.Cells[jb.mi])
		if err != nil {
			return fmt.Errorf("sweep %s %s: %w", mix.Name, fetchName(jb.prefetch), err)
		}
		if out.Sampled != nil {
			passes[j] = &SampledPass{Mix: mix.Name, Split: jb.split, Prefetch: jb.prefetch, Info: *out.Sampled}
		}
		if out.Parallel != nil {
			parPasses[j] = &ParallelPass{Mix: mix.Name, Split: jb.split, Prefetch: jb.prefetch, Info: *out.Parallel}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		if p != nil {
			res.Sampled = append(res.Sampled, *p)
		}
	}
	for _, p := range parPasses {
		if p != nil {
			res.Parallel = append(res.Parallel, *p)
		}
	}
	return res, nil
}

// orgName names a cache organization in stage and span labels.
func orgName(split bool) string {
	if split {
		return "split"
	}
	return "unified"
}

// fetchName names a grid half in stage and span labels.
func fetchName(prefetch bool) string {
	if prefetch {
		return "prefetch"
	}
	return "demand"
}

// PassResult is one completed sweep grid pass, delivered to
// Options.OnPass: which (mix, organization, fetch policy) job finished and
// its per-size outputs, indexed like Sizes.
type PassResult struct {
	Mix      string
	Split    bool
	Prefetch bool
	Sizes    []int
	Results  []SimOut
}

// runPass executes one (organization, fetch policy) job at every size via
// the engine capability registry and scatters the per-size results into
// the mix's cell row. The returned SweepOut carries the sampling and
// parallel metadata when those engines ran (its Results are already
// scattered).
func runPass(ctx context.Context, o Options, mix workload.Mix, refs []trace.Ref, split, prefetch bool, row []SweepCell) (core.SweepOut, error) {
	stage := "sweep:" + mix.Name + ":" + fetchName(prefetch) + ":" + orgName(split)
	sp := obs.StartSpan(ctx, stage)
	defer sp.End()
	fetch := cache.DemandFetch
	if prefetch {
		fetch = cache.PrefetchAlways
	}
	sampled := o.Sampled
	if sampled != nil && sampled.CycleRefs == 0 && mix.Quantum > 0 {
		// The mix's natural cycle is one full round-robin round: every
		// member's quantum once. Handing it to the engine lets sampling
		// windows align to purge boundaries (see core.SampledOptions).
		derived := *sampled
		derived.CycleRefs = len(mix.Specs) * mix.Quantum
		sampled = &derived
	}
	spec := core.SweepSpec{
		Sizes: o.Sizes, LineSize: o.LineSize, Split: split,
		Quantum: mix.Quantum, Fetch: fetch, Repl: o.Repl,
		Victim: o.Victim, L2: o.L2,
		Sampled: sampled, Parallel: o.parallelSpec(),
	}
	out, err := core.RunSweep(ctx, spec, trace.NewSliceReader(refs), o.Sink, stage, int64(len(refs)))
	if err != nil {
		return core.SweepOut{}, err
	}
	sp.AddRefs(int64(len(refs)))
	var outs []SimOut
	if o.OnPass != nil { // only allocate the callback's copy when someone listens
		outs = make([]SimOut, len(out.Results))
	}
	for si, r := range out.Results {
		cell := SimOut{Ref: r.Ref, I: r.I, D: r.D, U: r.U, CI: r.CI, H: r.H}
		if outs != nil {
			outs[si] = cell
		}
		switch {
		case split && prefetch:
			row[si].SplitPrefetch = cell
		case split:
			row[si].SplitDemand = cell
		case prefetch:
			row[si].UnifiedPrefetch = cell
		default:
			row[si].UnifiedDemand = cell
		}
	}
	if o.OnPass != nil {
		o.OnPass(PassResult{
			Mix: mix.Name, Split: split, Prefetch: prefetch,
			Sizes: o.Sizes, Results: outs,
		})
	}
	return out, nil
}

// SizeIndex returns the index of a cache size in Sizes, or -1.
func (r *SweepResult) SizeIndex(size int) int {
	for i, s := range r.Sizes {
		if s == size {
			return i
		}
	}
	return -1
}

// MixIndex returns the index of a mix by name, or -1.
func (r *SweepResult) MixIndex(name string) int {
	for i, m := range r.Mixes {
		if m.Name == name {
			return i
		}
	}
	return -1
}
