package core

// Engine capability registry: every multi-size sweep in the repository
// (core.RecommendFetch, the experiments grid, the evaluation service's
// /v1/sweep) routes through RunSweep, which selects the fastest engine
// that is *sound* for the requested configuration instead of hard-wiring
// the dispatch at each call site.
//
// The soundness argument: the one-pass engines rely on Mattson stack
// inclusion — at every instant, a larger fully-associative cache holds a
// superset of a smaller one's lines — which holds exactly when every
// residency change is driven by a demand reference ordered by recency.
// Prefetching breaks it (a prefetch inserts a line the smaller cache may
// never see), and so does every non-LRU replacement policy (the eviction
// choice depends on state — insertion order, use counts, segment or ghost
// history — that differs between cache sizes). A configuration outside
// {demand fetch, LRU} therefore must run one cache per size; the registry
// makes that decision explicit, testable, and impossible to bypass.
// One per-size engine serves them all, two-level hierarchies included; it
// borrows a materialized stream instead of copying it.
//
// Array ownership: an engine that builds a simulator and drops it when the
// sweep ends — the per-size and fan-out engines — Releases it, so the next
// size or pass draws its frame and tag arrays from the cache package's
// recycler instead of the heap. Code that is handed a simulator never
// releases it.

import (
	"context"
	"fmt"
	"strconv"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// SweepSpec describes one multi-size sweep: the sizes to evaluate, the
// shared line size and organization, the task-switch purge quantum, and
// the fetch and replacement policies. The zero values of Fetch and Repl
// are the paper's defaults (demand fetch, LRU).
type SweepSpec struct {
	Sizes    []int
	LineSize int
	Split    bool
	Quantum  int
	Fetch    cache.FetchPolicy
	Repl     cache.Replacement
	// Sampled opts the sweep into interval-sampled simulation with the
	// given error budget; nil (or a zero budget) means exact simulation.
	Sampled *SampledOptions
	// Parallel opts the sweep into time-parallel exact simulation with the
	// given worker budget; nil (or fewer than two workers) keeps the
	// serial engines. Composes with Sampled: when sampling falls back to
	// exact simulation, the fallback re-enters the registry and picks the
	// parallel engine.
	Parallel *ParallelOptions
	// Victim adds a victim buffer of this many fully-associative lines
	// behind every cache in the sweep (Jouppi's organization). Zero means
	// no buffer. A buffer breaks stack inclusion — its contents depend on
	// the eviction stream, which varies with cache size — so victim sweeps
	// never route to the one-pass engines.
	Victim int
	// L2 opts the sweep into two-level simulation: every L1 size runs in
	// front of this second-level cache. The L2 sees only the L1's memory
	// traffic, which changes with L1 size, so no multi-size engine is
	// sound for hierarchies; the registry routes them to the per-size
	// engine.
	L2 *L2Spec
}

// L2Spec describes the second-level cache of a two-level sweep: a unified
// demand-fetch LRU copy-back cache. LineSize 0 inherits the sweep's line
// size; Assoc 0 means fully associative.
type L2Spec struct {
	Size     int
	LineSize int
	Assoc    int
}

// config returns the cache configuration the L2 spec implies, inheriting
// the sweep's line size when unset.
func (l *L2Spec) config(sweepLine int) cache.Config {
	line := l.LineSize
	if line == 0 {
		line = sweepLine
	}
	return cache.Config{Size: l.Size, LineSize: line, Assoc: l.Assoc}
}

// StackInclusion reports whether Mattson stack inclusion holds for this
// configuration — the property the one-pass stack-simulation engines
// require. It holds only for demand fetch with LRU replacement, with no
// victim buffer and no second level.
func (s SweepSpec) StackInclusion() bool {
	return s.Fetch == cache.DemandFetch && s.Repl == cache.LRU && s.Victim == 0 && s.L2 == nil
}

// fanoutSound reports whether the prefetch fan-out engine is sound for
// this configuration: prefetch-always under LRU, with no victim buffer and
// no second level.
func (s SweepSpec) fanoutSound() bool {
	return s.Fetch == cache.PrefetchAlways && s.Repl == cache.LRU && s.Victim == 0 && s.L2 == nil
}

// Validate checks the spec by validating the per-size cache (or
// hierarchy) configs it implies and the sampling/parallel options, when
// present. Sampling and time-parallel simulation do not compose with
// victim buffers or hierarchies; those combinations are rejected here so
// every caller — the service's validators in particular — fails them
// before an engine runs.
func (s SweepSpec) Validate() error {
	if len(s.Sizes) == 0 {
		return fmt.Errorf("core: sweep has no sizes")
	}
	for _, size := range s.Sizes {
		if s.L2 != nil {
			if err := s.hierarchyConfig(size).Validate(); err != nil {
				return err
			}
		} else if err := s.systemConfig(size).Validate(); err != nil {
			return err
		}
	}
	if s.Sampled != nil && s.Sampled.ErrorBudget > 0 && (s.Victim > 0 || s.L2 != nil) {
		return fmt.Errorf("core: sampled sweeps do not support victim buffers or hierarchies")
	}
	if s.Parallel != nil && s.Parallel.Workers > 1 && (s.Victim > 0 || s.L2 != nil) {
		return fmt.Errorf("core: time-parallel sweeps do not support victim buffers or hierarchies")
	}
	if err := s.Sampled.Validate(); err != nil {
		return err
	}
	return s.Parallel.Validate()
}

// systemConfig returns the per-size system configuration the spec implies.
func (s SweepSpec) systemConfig(size int) cache.SystemConfig {
	base := cache.Config{Size: size, LineSize: s.LineSize, Fetch: s.Fetch, Repl: s.Repl,
		VictimLines: s.Victim}
	sc := cache.SystemConfig{PurgeInterval: s.Quantum}
	if s.Split {
		sc.Split = true
		sc.I, sc.D = base, base
	} else {
		sc.Unified = base
	}
	return sc
}

// hierarchyConfig returns the per-size two-level configuration the spec
// implies. Only meaningful when L2 is set.
func (s SweepSpec) hierarchyConfig(size int) cache.HierarchyConfig {
	return cache.HierarchyConfig{L1: s.systemConfig(size), L2: s.L2.config(s.LineSize)}
}

// SweepOut is what a sweep engine produces: the per-size results (in
// Sizes order), the purge count, and — for the sampled and parallel
// engines — their run metadata. Serial exact engines leave both nil.
type SweepOut struct {
	Results  []cache.SizeResult
	Purges   uint64
	Sampled  *SampledInfo
	Parallel *ParallelInfo
}

// SweepEngine is one registered way to execute a sweep. Supports declares
// the capability (when the engine's results are bit-identical to per-size
// simulation; the sampled engine instead guarantees budgeted estimates or
// exact fallback); Run executes it. rd is already context-guarded; sink
// may be nil; total is the expected stream length when known.
type SweepEngine struct {
	Name     string
	Supports func(s SweepSpec) bool
	Run      func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error)
}

// multiEngine: generalized stack simulation, one pass for all sizes.
var multiEngine = SweepEngine{
	Name:     "multisystem",
	Supports: SweepSpec.StackInclusion,
	Run: func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		ms, err := cache.NewMultiSystem(cache.MultiConfig{
			Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split, PurgeInterval: s.Quantum,
		})
		if err != nil {
			return SweepOut{}, err
		}
		ms.SetSink(sink, stage, total)
		if _, err := ms.Run(rd, 0); err != nil {
			return SweepOut{}, err
		}
		return SweepOut{Results: ms.Results(), Purges: ms.Purges()}, nil
	},
}

// fanoutEngine: one decode/purge/straddle pass fanned out to per-size
// caches; sound for prefetch-always under LRU (inclusion does not hold,
// but the shared per-reference work is size-independent).
var fanoutEngine = SweepEngine{
	Name:     "fanout",
	Supports: SweepSpec.fanoutSound,
	Run: func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
			Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split, PurgeInterval: s.Quantum,
		})
		if err != nil {
			return SweepOut{}, err
		}
		defer fs.Release()
		fs.SetSink(sink, stage, total)
		if _, err := fs.Run(rd, 0); err != nil {
			return SweepOut{}, err
		}
		return SweepOut{Results: fs.Results(), Purges: fs.Purges()}, nil
	},
}

// perSizeEngine: the universal fallback — borrow the stream once, then run
// an independent simulation per size (see newSizeSim). Sound for every
// configuration by construction; slowest.
var perSizeEngine = SweepEngine{
	Name:     "persize",
	Supports: func(SweepSpec) bool { return true },
	Run: func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		refs, err := trace.Borrow(rd, int(total))
		if err != nil {
			return SweepOut{}, err
		}
		var l2 *cache.Config
		if s.L2 != nil {
			c := s.L2.config(s.LineSize)
			l2 = &c
		}
		out := make([]cache.SizeResult, len(s.Sizes))
		var purges uint64
		for i, size := range s.Sizes {
			sim, err := newSizeSim(s.systemConfig(size), l2)
			if err != nil {
				return SweepOut{}, err
			}
			sim.SetSink(sink, stage+":"+strconv.Itoa(size), int64(len(refs)))
			_, err = sim.Run(trace.NewContextReader(ctx, trace.NewSliceReader(refs)), 0)
			out[i], purges = sim.SizeResult(size), sim.Purges()
			sim.Release()
			if err != nil {
				return SweepOut{}, err
			}
		}
		return SweepOut{Results: out, Purges: purges}, nil
	},
}

// sizeSim is one design's simulation, in the per-size engine and the
// exact single-design evaluation: a cache.System or a cache.Hierarchy.
type sizeSim interface {
	SetSink(s obs.Sink, stage string, totalRefs int64)
	Run(rd trace.Reader, max int) (int, error)
	Purges() uint64
	RefBytes() uint64
	SizeResult(size int) cache.SizeResult
	Release()
}

// newSizeSim builds the simulator of one design: a cache.System, or a
// cache.Hierarchy in front of l2 when l2 is non-nil.
func newSizeSim(sc cache.SystemConfig, l2 *cache.Config) (sizeSim, error) {
	if l2 == nil {
		return cache.NewSystem(sc)
	}
	return cache.NewHierarchy(cache.HierarchyConfig{L1: sc, L2: *l2})
}

// Engines returns the registered sweep engines in selection order: fastest
// first, universal fallback last. SelectEngine picks the first whose
// Supports accepts the spec, so an engine earlier in this list must be
// sound for every spec it claims. The sampled engine leads: a spec that
// carries a positive error budget has opted into estimates, and the
// engine's own exact-fallback escape hatch re-enters this list with the
// budget stripped when sampling cannot meet it. The parallel engine comes
// next — exact results from concurrent segments when the spec grants
// workers, with its own serial-delegation escape hatch re-entering this
// list when no sound parallel plan exists. Victim-buffer, L2 and non-LRU
// specs reach only the per-size fallback.
func Engines() []SweepEngine {
	return []SweepEngine{sampledEngine, parallelEngine, multiEngine, fanoutEngine, perSizeEngine}
}

// SelectEngine returns the fastest sound engine for the spec. The
// fallback's Supports is constant-true, so selection always succeeds.
func SelectEngine(s SweepSpec) SweepEngine {
	for _, e := range Engines() {
		if e.Supports(s) {
			return e
		}
	}
	return perSizeEngine // unreachable; kept for safety
}

// RunSweep validates the spec, selects the fastest sound engine and
// executes the sweep over rd. sink may be nil; stage labels the run in
// its events (the per-size fallback appends ":<size>"); total is the
// expected stream length when known, 0 otherwise. It returns the per-size
// results (in Sizes order), the purge count, and sampling metadata when
// the sampled engine ran.
func RunSweep(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
	if err := s.Validate(); err != nil {
		return SweepOut{}, err
	}
	e := SelectEngine(s)
	return e.Run(ctx, s, trace.NewContextReader(ctx, rd), sink, stage, total)
}
