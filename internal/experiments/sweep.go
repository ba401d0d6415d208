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
	// Parallel is always empty: sweeps no longer split a pass's stream
	// into time segments.
	//
	// Deprecated: kept only so existing readers still compile.
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

// ParallelPass is the element type of the always-empty
// SweepResult.Parallel.
//
// Deprecated: no sweep produces one.
type ParallelPass struct {
	Info struct {
		FellBack bool
		Segments int
	}
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
// Every grid pass routes through the engine capability registry
// (core.SelectEngine), which picks the fastest engine that is sound for the
// pass's configuration: under LRU (the default), the demand half runs one
// generalized stack-simulation pass per (mix, organization)
// (cache.MultiSystem) and the prefetch half one fan-out pass
// (cache.FanoutSystem); a non-LRU Options.Repl breaks stack inclusion, so
// the registry transparently falls back to one cache per size. All routes
// are bit-identical to the per-size simulations they replace.
//
// When every pass selects an engine with an incremental form and no pass
// is sampled, the sweep is streamed: no stream is materialized. Each job
// opens one mix's generator and feeds a group of its passes from one
// reusable chunk buffer (core.Feed), so workers split engines, not time.
// Otherwise every mix is materialized once and SweepRefsContext runs the
// grid over the streams.
func SweepMixesContext(ctx context.Context, o Options, mixes []workload.Mix) (*SweepResult, error) {
	o = o.withDefaults()
	if o.streamed(mixes) {
		res := newSweepResult(o, mixes)
		if err := o.sweepStreamed(ctx, mixes, res.Cells); err != nil {
			return nil, err
		}
		return res, nil
	}
	streams := make([][]trace.Ref, len(mixes))
	err := o.forEachCtx(ctx, len(mixes), func(i int) error {
		sp := obs.StartSpan(ctx, "materialize:"+mixes[i].Name)
		refs, err := o.CollectMixContext(ctx, mixes[i])
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
	return SweepRefsContext(ctx, o, mixes, streams)
}

// SweepRefsContext runs the sweep grid over already-materialized streams:
// streams[i] is mixes[i]'s interleaved reference stream, which every pass
// over the mix re-reads from memory. It never streams from the generator,
// so callers that time the engines apart from workload synthesis (the
// sweep benchmarks) materialize once and call it.
func SweepRefsContext(ctx context.Context, o Options, mixes []workload.Mix, streams [][]trace.Ref) (*SweepResult, error) {
	o = o.withDefaults()
	res := newSweepResult(o, mixes)
	// Job list: per mix, one all-sizes pass per (fetch policy,
	// organization). Each job writes only its own cell fields, so results
	// are bit-identical regardless of the worker count.
	type job struct {
		mi int
		p  gridPass
	}
	var jobs []job
	for mi := range mixes {
		for _, p := range gridPasses {
			jobs = append(jobs, job{mi, p})
		}
	}
	// Each job writes only its own slot, so sampled-pass metadata stays
	// deterministic (job order) regardless of the worker count.
	passes := make([]*SampledPass, len(jobs))
	err := o.forEachCtx(ctx, len(jobs), func(j int) error {
		jb := jobs[j]
		mix, refs := mixes[jb.mi], streams[jb.mi]
		out, err := runPass(ctx, o, mix, refs, jb.p, res.Cells[jb.mi])
		if err != nil {
			return fmt.Errorf("sweep %s %s: %w", mix.Name, fetchName(jb.p.prefetch), err)
		}
		if out.Sampled != nil {
			passes[j] = &SampledPass{Mix: mix.Name, Split: jb.p.split, Prefetch: jb.p.prefetch, Info: *out.Sampled}
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
	return res, nil
}

// newSweepResult returns an empty result with one cell row per mix.
func newSweepResult(o Options, mixes []workload.Mix) *SweepResult {
	res := &SweepResult{Sizes: o.Sizes, Mixes: mixes, opts: o}
	res.Cells = make([][]SweepCell, len(mixes))
	for i := range res.Cells {
		res.Cells[i] = make([]SweepCell, len(o.Sizes))
	}
	return res
}

// gridPass is one of a mix's four all-sizes passes: an organization and a
// fetch policy.
type gridPass struct{ split, prefetch bool }

// gridPasses lists a mix's passes in job order: the demand half, then the
// prefetch half, split before unified in each.
var gridPasses = []gridPass{{true, false}, {false, false}, {true, true}, {false, true}}

// stage names the pass in sink events and spans.
func (p gridPass) stage(mix workload.Mix) string {
	return "sweep:" + mix.Name + ":" + fetchName(p.prefetch) + ":" + orgName(p.split)
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

// passSpec is the sweep spec of one pass over mix.
func (o Options) passSpec(mix workload.Mix, p gridPass) core.SweepSpec {
	fetch := cache.DemandFetch
	if p.prefetch {
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
	return core.SweepSpec{
		Sizes: o.Sizes, LineSize: o.LineSize, Split: p.split,
		Quantum: mix.Quantum, Fetch: fetch, Repl: o.Repl,
		Victim: o.Victim, L2: o.L2, Sampled: sampled,
	}
}

// runPass executes one materialized (organization, fetch policy) job at
// every size via the engine capability registry and scatters the per-size
// results into the mix's cell row. The returned SweepOut carries the
// sampling metadata when that engine ran (its Results are already
// scattered).
func runPass(ctx context.Context, o Options, mix workload.Mix, refs []trace.Ref, p gridPass, row []SweepCell) (core.SweepOut, error) {
	stage := p.stage(mix)
	sp := obs.StartSpan(ctx, stage)
	defer sp.End()
	out, err := core.RunSweep(ctx, o.passSpec(mix, p), trace.NewSliceReader(refs), o.Sink, stage, int64(len(refs)))
	if err != nil {
		return core.SweepOut{}, err
	}
	sp.AddRefs(int64(len(refs)))
	o.deliver(mix, p, out.Results, row)
	return out, nil
}

// deliver scatters one pass's per-size results into the mix's cell row
// and hands them to OnPass.
func (o Options) deliver(mix workload.Mix, p gridPass, results []cache.SizeResult, row []SweepCell) {
	var outs []SimOut
	if o.OnPass != nil { // only allocate the callback's copy when someone listens
		outs = make([]SimOut, len(results))
	}
	for si, r := range results {
		cell := SimOut{Ref: r.Ref, I: r.I, D: r.D, U: r.U, CI: r.CI, H: r.H}
		if outs != nil {
			outs[si] = cell
		}
		switch {
		case p.split && p.prefetch:
			row[si].SplitPrefetch = cell
		case p.split:
			row[si].SplitDemand = cell
		case p.prefetch:
			row[si].UnifiedPrefetch = cell
		default:
			row[si].UnifiedDemand = cell
		}
	}
	if o.OnPass != nil {
		o.OnPass(PassResult{
			Mix: mix.Name, Split: p.split, Prefetch: p.prefetch,
			Sizes: o.Sizes, Results: outs,
		})
	}
}

// streamed reports whether the sweep takes the streamed path: no pass is
// sampled, and the registry picks an engine with an incremental form for
// every pass.
func (o Options) streamed(mixes []workload.Mix) bool {
	if o.Sampled != nil {
		return false
	}
	for _, m := range mixes {
		for _, p := range gridPasses {
			spec := o.passSpec(m, p)
			if spec.Validate() != nil || core.SelectEngine(spec).Open == nil {
				return false
			}
		}
	}
	return true
}

// passGroups splits a mix's passes into the streamed sweep's jobs: all
// four in one job when the mixes alone give every worker a job; else the
// split and unified pairs (each one demand pass plus one prefetch pass);
// else one pass per job. Each job regenerates its mix's stream.
func (o Options) passGroups(mixes int) [][]gridPass {
	switch {
	case mixes >= o.Workers:
		return [][]gridPass{gridPasses}
	case 2*mixes >= o.Workers:
		return [][]gridPass{
			{gridPasses[0], gridPasses[2]},
			{gridPasses[1], gridPasses[3]},
		}
	default:
		groups := make([][]gridPass, len(gridPasses))
		for i := range gridPasses {
			groups[i] = gridPasses[i : i+1]
		}
		return groups
	}
}

// groupSpan names a streamed job's span: the mix for a whole-mix job, plus
// the organization for a pair, plus the fetch policy for a single pass.
func groupSpan(mix workload.Mix, group []gridPass) string {
	switch len(group) {
	case len(gridPasses):
		return "sweep:" + mix.Name
	case 1:
		return group[0].stage(mix)
	default:
		return "sweep:" + mix.Name + ":" + orgName(group[0].split)
	}
}

// sweepStreamed runs the streamed sweep: one job per (mix, pass group).
// Each job writes only its own cell fields, so results are bit-identical
// regardless of the worker count and the grouping.
func (o Options) sweepStreamed(ctx context.Context, mixes []workload.Mix, cells [][]SweepCell) error {
	groups := o.passGroups(len(mixes))
	return o.forEachCtx(ctx, len(mixes)*len(groups), func(j int) error {
		mi, group := j/len(groups), groups[j%len(groups)]
		return o.runStreamed(ctx, mixes[mi], group, cells[mi])
	})
}

// runStreamed is one streamed job: it opens the mix's generator once,
// feeds every pass of the group from it chunk by chunk, and delivers each
// pass's results when the stream ends. Its one span covers generation and
// every pass, so spans still tile the sweep.
func (o Options) runStreamed(ctx context.Context, mix workload.Mix, group []gridPass, row []SweepCell) error {
	sp := obs.StartSpan(ctx, groupSpan(mix, group))
	defer sp.End()
	m := o.limitMix(mix)
	rd, err := m.Open()
	if err != nil {
		return fmt.Errorf("sweep %s: %w", mix.Name, err)
	}
	total := int64(m.TotalRefs())
	streams := make([]*core.SweepStream, 0, len(group))
	for _, p := range group {
		spec := o.passSpec(mix, p)
		st, err := core.SelectEngine(spec).Open(spec, o.Sink, p.stage(mix), total)
		if err != nil {
			for _, open := range streams {
				open.Close(err) // pairs its events and releases it; returns err
			}
			return fmt.Errorf("sweep %s %s: %w", mix.Name, fetchName(p.prefetch), err)
		}
		streams = append(streams, st)
	}
	err = core.Feed(ctx, rd, streams...)
	for i, st := range streams {
		if out, cerr := st.Close(err); cerr == nil {
			o.deliver(mix, group[i], out.Results, row)
		}
	}
	if err != nil {
		return fmt.Errorf("sweep %s: %w", mix.Name, err)
	}
	sp.AddRefs(total)
	return nil
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
