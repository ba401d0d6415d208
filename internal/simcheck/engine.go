package simcheck

import (
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/trace"
)

// Workload is one conformance input: a named reference stream plus the
// task-switch purge quantum it runs under (the quantum is a property of the
// traced machine — 20,000 references in the paper, 15,000 for the M68000).
type Workload struct {
	Name    string
	Refs    []trace.Ref
	Quantum int
}

// Grid describes the organization sweep a conformance run evaluates: the
// cache sizes, the shared line size, split vs unified, demand fetch vs
// prefetch-always — the four axes of the paper's §3.3-§3.5 master sweep —
// plus the replacement policy (zero value LRU, the paper's default), an
// optional victim buffer on each L1 cache, and an optional L2 behind the
// whole L1 (L2Size 0 means single-level; L2Line 0 inherits the grid line
// size). All grid caches are fully associative copy-back; the L2 is
// demand-fetch LRU.
type Grid struct {
	Sizes    []int
	LineSize int
	Split    bool
	Prefetch bool
	Repl     cache.Replacement
	Victim   int
	L2Size   int
	L2Line   int
}

func (g Grid) fetch() cache.FetchPolicy {
	if g.Prefetch {
		return cache.PrefetchAlways
	}
	return cache.DemandFetch
}

func (g Grid) l2Line() int {
	if g.L2Line > 0 {
		return g.L2Line
	}
	return g.LineSize
}

// SystemConfig returns the per-size system configuration the grid implies.
func (g Grid) SystemConfig(size, quantum int) cache.SystemConfig {
	base := cache.Config{Size: size, LineSize: g.LineSize, Fetch: g.fetch(), Repl: g.Repl,
		VictimLines: g.Victim}
	sc := cache.SystemConfig{PurgeInterval: quantum}
	if g.Split {
		sc.Split = true
		sc.I, sc.D = base, base
	} else {
		sc.Unified = base
	}
	return sc
}

// HierarchyConfig returns the two-level configuration the grid implies at
// one L1 size. Only meaningful when L2Size > 0.
func (g Grid) HierarchyConfig(size, quantum int) cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1: g.SystemConfig(size, quantum),
		L2: cache.Config{Size: g.L2Size, LineSize: g.l2Line()},
	}
}

// Outcome is what an engine produced for one (grid, workload) pair: the
// per-size statistics in cache.SizeResult shape plus the purge count.
type Outcome struct {
	Engine   string
	Grid     Grid
	Workload Workload
	Results  []cache.SizeResult
	Purges   uint64
}

// Engine adapts one simulation engine to the conformance harness.
type Engine interface {
	Name() string
	// Supports reports whether the engine can simulate g at all (the
	// one-pass engines each cover only one fetch policy).
	Supports(g Grid) bool
	Simulate(g Grid, w Workload) (*Outcome, error)
}

// Run drives e over (g, w) and checks every per-run invariant against the
// outcome. It is the single entry point every engine and service-level test
// goes through. The outcome is returned even when an invariant fails, so
// callers can report it.
func Run(e Engine, g Grid, w Workload) (*Outcome, error) {
	if !e.Supports(g) {
		return nil, fmt.Errorf("simcheck: engine %s does not support grid %+v", e.Name(), g)
	}
	o, err := e.Simulate(g, w)
	if err != nil {
		return nil, fmt.Errorf("simcheck: engine %s: %w", e.Name(), err)
	}
	if err := Check(o); err != nil {
		return o, fmt.Errorf("simcheck: engine %s on %s: %w", e.Name(), w.Name, err)
	}
	return o, nil
}

// Compare asserts two outcomes carry bit-identical per-size statistics and
// purge counts. The differential-oracle core: got is the engine under test,
// want the trusted side.
func Compare(got, want *Outcome) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("simcheck: %s has %d results, %s has %d",
			got.Engine, len(got.Results), want.Engine, len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			return fmt.Errorf("simcheck: size %d: %s diverges from %s\n got %+v\nwant %+v",
				want.Results[i].Size, got.Engine, want.Engine, got.Results[i], want.Results[i])
		}
	}
	if got.Purges != want.Purges {
		return fmt.Errorf("simcheck: purge counts diverge: %s %d, %s %d",
			got.Engine, got.Purges, want.Engine, want.Purges)
	}
	return nil
}

// perSizeOutcome assembles an Outcome from independent per-size runs that
// expose RefStats/Stats/Purges; sim runs one size and reports its results.
func perSizeOutcome(name string, g Grid, w Workload,
	sim func(sc cache.SystemConfig) (cache.RefStats, [3]cache.Stats, uint64, error)) (*Outcome, error) {
	out := &Outcome{Engine: name, Grid: g, Workload: w, Results: make([]cache.SizeResult, len(g.Sizes))}
	for i, size := range g.Sizes {
		refs, stats, purges, err := sim(g.SystemConfig(size, w.Quantum))
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		out.Results[i] = cache.SizeResult{Size: size, Ref: refs, I: stats[0], D: stats[1], U: stats[2]}
		if i == 0 {
			out.Purges = purges
		} else if purges != out.Purges {
			return nil, fmt.Errorf("size %d: %d purges, size %d: %d — the purge schedule is size-independent",
				g.Sizes[0], out.Purges, size, purges)
		}
	}
	return out, nil
}

// ReferenceEngine runs the naive reference simulator independently at every
// size — the trusted model the optimized engines are compared against.
type ReferenceEngine struct{}

// Name identifies the engine in reports.
func (ReferenceEngine) Name() string { return "reference" }

// Supports reports grid coverage: the reference model covers every
// single-level grid except Random replacement (which would need the
// implementation's RNG stream); two-level grids go to RefHierarchyEngine.
func (ReferenceEngine) Supports(g Grid) bool { return g.Repl != cache.Random && g.L2Size == 0 }

// Simulate runs the reference model over the workload at every grid size.
func (ReferenceEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	return perSizeOutcome("reference", g, w,
		func(sc cache.SystemConfig) (cache.RefStats, [3]cache.Stats, uint64, error) {
			sys, err := NewRefSystem(sc)
			if err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, 0, err
			}
			if _, err := sys.Run(trace.NewSliceReader(w.Refs), 0); err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, 0, err
			}
			var st [3]cache.Stats
			if sc.Split {
				st[0], st[1] = sys.ICache().Stats(), sys.DCache().Stats()
			} else {
				st[2] = sys.Unified().Stats()
			}
			return sys.RefStats(), st, sys.Purges(), nil
		})
}

// SystemEngine runs the production per-size simulator (cache.System)
// independently at every size — the classic path the one-pass engines are
// certified against.
type SystemEngine struct{}

// Name identifies the engine in reports.
func (SystemEngine) Name() string { return "system" }

// Supports reports grid coverage: System covers every single-level grid —
// any fetch and replacement policy, victim buffers included; two-level
// grids go to HierarchyEngine.
func (SystemEngine) Supports(g Grid) bool { return g.L2Size == 0 }

// Simulate runs cache.System over the workload at every grid size.
func (SystemEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	return perSizeOutcome("system", g, w,
		func(sc cache.SystemConfig) (cache.RefStats, [3]cache.Stats, uint64, error) {
			sys, err := cache.NewSystem(sc)
			if err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, 0, err
			}
			if _, err := sys.Run(trace.NewSliceReader(w.Refs), 0); err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, 0, err
			}
			var st [3]cache.Stats
			if sc.Split {
				st[0], st[1] = sys.ICache().Stats(), sys.DCache().Stats()
			} else {
				st[2] = sys.Unified().Stats()
			}
			return sys.RefStats(), st, sys.Purges(), nil
		})
}

// MultiEngine runs the one-pass multi-size demand engine (cache.MultiSystem).
type MultiEngine struct{}

// Name identifies the engine in reports.
func (MultiEngine) Name() string { return "multisystem" }

// Supports reports grid coverage: the stack-inclusion engine requires
// demand fetch and LRU replacement — the only combination for which
// Mattson inclusion holds across sizes — and neither a victim buffer (the
// buffer's contents depend on the eviction stream, which varies with
// size) nor an L2 (whose input stream varies with L1 size).
func (MultiEngine) Supports(g Grid) bool {
	return !g.Prefetch && g.Repl == cache.LRU && g.Victim == 0 && g.L2Size == 0
}

// Simulate runs cache.MultiSystem once over the workload.
func (MultiEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	ms, err := cache.NewMultiSystem(cache.MultiConfig{
		Sizes: g.Sizes, LineSize: g.LineSize, Split: g.Split, PurgeInterval: w.Quantum,
	})
	if err != nil {
		return nil, err
	}
	for _, r := range w.Refs {
		ms.Ref(r)
	}
	return &Outcome{Engine: "multisystem", Grid: g, Workload: w,
		Results: ms.Results(), Purges: ms.Purges()}, nil
}

// FanoutEngine runs the one-pass multi-size prefetch engine
// (cache.FanoutSystem).
type FanoutEngine struct{}

// Name identifies the engine in reports.
func (FanoutEngine) Name() string { return "fanout" }

// Supports reports grid coverage: the fan-out engine serves
// prefetch-always grids, only under LRU replacement and — like
// MultiEngine — never with a victim buffer or an L2.
func (FanoutEngine) Supports(g Grid) bool {
	return g.Prefetch && g.Repl == cache.LRU && g.Victim == 0 && g.L2Size == 0
}

// Simulate runs cache.FanoutSystem once over the workload.
func (FanoutEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
		Sizes: g.Sizes, LineSize: g.LineSize, Split: g.Split, PurgeInterval: w.Quantum,
	})
	if err != nil {
		return nil, err
	}
	for _, r := range w.Refs {
		fs.Ref(r)
	}
	return &Outcome{Engine: "fanout", Grid: g, Workload: w,
		Results: fs.Results(), Purges: fs.Purges()}, nil
}

// perSizeHierOutcome assembles an Outcome from independent per-size
// two-level runs; sim runs one hierarchy and reports L1 results plus the
// L2 side.
func perSizeHierOutcome(name string, g Grid, w Workload,
	sim func(hc cache.HierarchyConfig) (cache.RefStats, [3]cache.Stats, cache.HierResult, uint64, error)) (*Outcome, error) {
	out := &Outcome{Engine: name, Grid: g, Workload: w, Results: make([]cache.SizeResult, len(g.Sizes))}
	for i, size := range g.Sizes {
		refs, stats, hier, purges, err := sim(g.HierarchyConfig(size, w.Quantum))
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		out.Results[i] = cache.SizeResult{Size: size, Ref: refs, I: stats[0], D: stats[1], U: stats[2], H: hier}
		if i == 0 {
			out.Purges = purges
		} else if purges != out.Purges {
			return nil, fmt.Errorf("size %d: %d purges, size %d: %d — the purge schedule is size-independent",
				g.Sizes[0], out.Purges, size, purges)
		}
	}
	return out, nil
}

// HierarchyEngine runs the production two-level simulator
// (cache.Hierarchy) independently at every L1 size.
type HierarchyEngine struct{}

// Name identifies the engine in reports.
func (HierarchyEngine) Name() string { return "hierarchy" }

// Supports reports grid coverage: every two-level grid.
func (HierarchyEngine) Supports(g Grid) bool { return g.L2Size > 0 }

// Simulate runs cache.Hierarchy over the workload at every L1 size.
func (HierarchyEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	return perSizeHierOutcome("hierarchy", g, w,
		func(hc cache.HierarchyConfig) (cache.RefStats, [3]cache.Stats, cache.HierResult, uint64, error) {
			h, err := cache.NewHierarchy(hc)
			if err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, cache.HierResult{}, 0, err
			}
			if _, err := h.Run(trace.NewSliceReader(w.Refs), 0); err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, cache.HierResult{}, 0, err
			}
			var st [3]cache.Stats
			if hc.L1.Split {
				st[0], st[1] = h.L1().ICache().Stats(), h.L1().DCache().Stats()
			} else {
				st[2] = h.L1().Unified().Stats()
			}
			hr := cache.HierResult{Ev: h.HierStats(), U: h.L2Stats()}
			return h.RefStats(), st, hr, h.Purges(), nil
		})
}

// RefHierarchyEngine runs the naive two-level reference simulator
// (RefHierarchy) independently at every L1 size — the trusted model
// HierarchyEngine is compared against.
type RefHierarchyEngine struct{}

// Name identifies the engine in reports.
func (RefHierarchyEngine) Name() string { return "ref-hierarchy" }

// Supports reports grid coverage: two-level grids, minus Random
// replacement (same RNG-stream caveat as ReferenceEngine).
func (RefHierarchyEngine) Supports(g Grid) bool { return g.L2Size > 0 && g.Repl != cache.Random }

// Simulate runs RefHierarchy over the workload at every L1 size.
func (RefHierarchyEngine) Simulate(g Grid, w Workload) (*Outcome, error) {
	return perSizeHierOutcome("ref-hierarchy", g, w,
		func(hc cache.HierarchyConfig) (cache.RefStats, [3]cache.Stats, cache.HierResult, uint64, error) {
			h, err := NewRefHierarchy(hc)
			if err != nil {
				return cache.RefStats{}, [3]cache.Stats{}, cache.HierResult{}, 0, err
			}
			for _, r := range w.Refs {
				h.Ref(r)
			}
			var st [3]cache.Stats
			if hc.L1.Split {
				st[0], st[1] = h.L1().ICache().Stats(), h.L1().DCache().Stats()
			} else {
				st[2] = h.L1().Unified().Stats()
			}
			hr := cache.HierResult{Ev: h.HierStats(), U: h.L2Stats()}
			return h.RefStats(), st, hr, h.Purges(), nil
		})
}

// Engines returns every engine the harness knows, reference models first.
func Engines() []Engine {
	return []Engine{ReferenceEngine{}, RefHierarchyEngine{}, SystemEngine{},
		MultiEngine{}, FanoutEngine{}, HierarchyEngine{}}
}
