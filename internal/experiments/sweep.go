package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/obs"
	"cacheeval/internal/recycle"
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
// Every pass spec is validated before any stream is generated. The grid
// then runs as jobs in mix-major order on up to Workers goroutines, so
// workers split engines, not time. A mix whose every pass selects an
// engine with an incremental form streams: each of its jobs, one per pass
// group (see passGroups), opens the mix's generator and feeds its passes
// from one reusable chunk buffer (core.Feed). Any other mix runs one job
// per pass over one shared, recycled buffer (mixStream), generated once,
// so the sweep holds at most Workers streams at once, not one per mix.
// A mix's buffer passes to the sweep's next mixes (sweepBuffers).
func SweepMixesContext(ctx context.Context, o Options, mixes []workload.Mix) (*SweepResult, error) {
	o = o.withDefaults()
	for _, m := range mixes {
		for _, p := range gridPasses {
			if err := o.passSpec(m, p).Validate(); err != nil {
				return nil, fmt.Errorf("sweep %s %s: %w", m.Name, fetchName(p.prefetch), err)
			}
		}
	}
	bufs := &sweepBuffers{}
	shared := make([]*mixStream, len(mixes))
	for mi, m := range mixes {
		if !o.canStream(m) {
			shared[mi] = &mixStream{bufs: bufs}
			shared[mi].left.Store(int32(len(singlePasses)))
		}
	}
	groups := func(mi int) [][]gridPass {
		if shared[mi] == nil {
			return o.passGroups(len(mixes))
		}
		return singlePasses
	}
	res, err := o.sweepJobs(ctx, mixes, groups, func(mi int, group []gridPass, row []SweepCell, sampled []*SampledPass) error {
		s := shared[mi]
		if s == nil {
			return o.runStreamed(ctx, mixes[mi], group, row)
		}
		defer s.end(1)
		refs, err := s.fill(ctx, o, mixes[mi])
		if err != nil {
			return err
		}
		return o.runPasses(ctx, mixes[mi], refs, group, row, sampled)
	})
	for _, s := range shared {
		if s != nil {
			s.end(s.left.Load()) // the jobs a failure kept from starting
		}
	}
	bufs.release()
	return res, err
}

// SweepRefsContext runs the sweep grid over already-materialized streams:
// streams[i] is mixes[i]'s interleaved reference stream, which every pass
// over the mix re-reads from memory. It never streams from the generator,
// so callers that time the engines apart from workload synthesis (the
// sweep benchmarks) materialize once and call it. Each pass is a job of
// its own.
func SweepRefsContext(ctx context.Context, o Options, mixes []workload.Mix, streams [][]trace.Ref) (*SweepResult, error) {
	o = o.withDefaults()
	groups := func(int) [][]gridPass { return singlePasses }
	return o.sweepJobs(ctx, mixes, groups, func(mi int, group []gridPass, row []SweepCell, sampled []*SampledPass) error {
		return o.runPasses(ctx, mixes[mi], streams[mi], group, row, sampled)
	})
}

// sweepJobs runs job once per (mix, pass group), mix by mix in order, on
// up to Workers goroutines; groups(mi) lists mix mi's pass groups. Each
// job writes only its own mix's cell fields and sampled-pass slots (one
// per gridPasses entry), so the result, including the order of Sampled,
// is bit-identical regardless of the worker count and the grouping.
func (o Options) sweepJobs(ctx context.Context, mixes []workload.Mix, groups func(mi int) [][]gridPass,
	job func(mi int, group []gridPass, row []SweepCell, sampled []*SampledPass) error) (*SweepResult, error) {
	type gridJob struct {
		mi    int
		group []gridPass
	}
	var jobs []gridJob
	for mi := range mixes {
		for _, g := range groups(mi) {
			jobs = append(jobs, gridJob{mi, g})
		}
	}
	res := newSweepResult(o, mixes)
	sampled := make([]*SampledPass, len(mixes)*len(gridPasses))
	err := o.forEachCtx(ctx, len(jobs), func(j int) error {
		mi := jobs[j].mi
		return job(mi, jobs[j].group, res.Cells[mi], sampled[mi*len(gridPasses):(mi+1)*len(gridPasses)])
	})
	if err != nil {
		return nil, err
	}
	for _, p := range sampled {
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

// singlePasses groups gridPasses one pass per job.
var singlePasses = [][]gridPass{gridPasses[0:1], gridPasses[1:2], gridPasses[2:3], gridPasses[3:4]}

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

// refPool recycles the buffers sweeps fill with their mixes' streams.
var refPool recycle.Pool[trace.Ref]

// sweepBuffers holds the buffers of one sweep's materialized mixes that
// no job is reading. A mix's buffer comes here when the mix's last job
// ends and goes to the next mix it fits; the sweep hands them all to
// refPool when it returns. Handed back one by one, a buffer stayed in the
// ending worker's per-P pool cache, out of the next mix's reach, and
// peak RSS grew (DESIGN.md §9).
type sweepBuffers struct {
	mu    sync.Mutex
	spare [][]trace.Ref
}

// get returns a buffer of length n: the smallest spare that fits, else
// one from refPool.
func (b *sweepBuffers) get(n int) []trace.Ref {
	b.mu.Lock()
	best := -1
	for i, buf := range b.spare {
		if cap(buf) >= n && (best < 0 || cap(buf) < cap(b.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		b.mu.Unlock()
		return refPool.Get(n)
	}
	buf := b.spare[best]
	b.spare = slices.Delete(b.spare, best, best+1)
	b.mu.Unlock()
	return buf[:n]
}

// put takes back a buffer no job reads any more.
func (b *sweepBuffers) put(buf []trace.Ref) {
	if cap(buf) == 0 {
		return
	}
	b.mu.Lock()
	b.spare = append(b.spare, buf)
	b.mu.Unlock()
}

// release hands every spare to refPool once the sweep's jobs have ended.
func (b *sweepBuffers) release() {
	for _, buf := range b.spare {
		refPool.Put(buf)
	}
}

// mixStream is one mix's materialized stream, shared by the mix's pass
// jobs. Jobs start in mix order, so a sweep's live streams are those of
// the mixes its workers are on.
type mixStream struct {
	bufs *sweepBuffers
	once sync.Once
	refs []trace.Ref
	err  error
	left atomic.Int32 // the mix's jobs that have not ended
}

// fill returns the mix's stream. The first job to ask fills a buffer
// from the sweep's spares or refPool with the mix's generator, under a
// materialize:<mix> span; the others wait for it.
func (s *mixStream) fill(ctx context.Context, o Options, mix workload.Mix) ([]trace.Ref, error) {
	s.once.Do(func() {
		sp := obs.StartSpan(ctx, "materialize:"+mix.Name)
		defer sp.End()
		s.refs, s.err = o.appendMix(ctx, s.bufs.get(o.limitMix(mix).TotalRefs())[:0], mix)
		if s.err != nil {
			s.err = fmt.Errorf("sweep %s: %w", mix.Name, s.err)
			return
		}
		sp.AddRefs(int64(len(s.refs)))
	})
	return s.refs, s.err
}

// end records that n more of the mix's jobs have ended, or will never
// start, and hands the buffer to the sweep's spares after the last.
func (s *mixStream) end(n int32) {
	if n > 0 && s.left.Add(-n) == 0 {
		s.bufs.put(s.refs)
	}
}

// runPasses runs each pass of a group over the mix's materialized stream
// and records each sampled pass in its gridPasses slot.
func (o Options) runPasses(ctx context.Context, mix workload.Mix, refs []trace.Ref, group []gridPass, row []SweepCell, sampled []*SampledPass) error {
	for _, p := range group {
		out, err := runPass(ctx, o, mix, refs, p, row)
		if err != nil {
			return fmt.Errorf("sweep %s %s: %w", mix.Name, fetchName(p.prefetch), err)
		}
		if out.Sampled != nil {
			sampled[slices.Index(gridPasses, p)] = &SampledPass{Mix: mix.Name, Split: p.split, Prefetch: p.prefetch, Info: *out.Sampled}
		}
	}
	return nil
}

// runPass executes one materialized (organization, fetch policy) pass at
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

// canStream reports whether a mix's jobs feed their passes from the
// generator: the registry picks an engine with an incremental form for
// every pass. A sampled or per-size pass has none.
func (o Options) canStream(mix workload.Mix) bool {
	for _, p := range gridPasses {
		if core.SelectEngine(o.passSpec(mix, p)).Open == nil {
			return false
		}
	}
	return true
}

// passGroups splits a streamed mix's passes into the sweep's jobs: all
// four in one job when the mixes alone give every worker a job; else the
// split and unified pairs (each one demand pass plus one prefetch pass);
// else one pass per job. Each job generates its mix's stream itself.
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
		return singlePasses
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
