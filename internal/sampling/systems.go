package sampling

import (
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/parallel"
	"cacheeval/internal/trace"
)

// Systems adapts independent per-size cache.Systems to a single sweep
// Target and a time-parallel segment replica (parallel.Replica) — the
// windowed and segmented form of the registry's per-size fallback engine,
// sound for every fetch and replacement policy. A single-config
// evaluation is the one-element case.
type Systems struct {
	sizes []int
	sys   []*cache.System
}

// NewSystems builds one System per configuration. sizes labels the
// Results; it must be the same length as cfgs. Each configuration must
// have purging disabled (the sweep driver schedules purges itself, in
// trace time).
func NewSystems(sizes []int, cfgs []cache.SystemConfig) (*Systems, error) {
	if len(sizes) != len(cfgs) {
		return nil, fmt.Errorf("sampling: %d sizes for %d configs", len(sizes), len(cfgs))
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sampling: no configs")
	}
	g := &Systems{sizes: append([]int(nil), sizes...)}
	for _, sc := range cfgs {
		if sc.PurgeInterval != 0 {
			return nil, fmt.Errorf("sampling: target configs must not self-purge (interval %d)", sc.PurgeInterval)
		}
		sys, err := cache.NewSystem(sc)
		if err != nil {
			return nil, err
		}
		g.sys = append(g.sys, sys)
	}
	return g, nil
}

// Ref feeds the reference to every system.
func (g *Systems) Ref(r trace.Ref) {
	for _, s := range g.sys {
		s.Ref(r)
	}
}

// RefSnapshot returns each system's reference-level counters.
func (g *Systems) RefSnapshot(dst []cache.RefStats) []cache.RefStats {
	if len(dst) != len(g.sys) {
		dst = make([]cache.RefStats, len(g.sys))
	}
	for i, s := range g.sys {
		dst[i] = s.RefStats()
	}
	return dst
}

// Results assembles per-size outcomes exactly as the per-size sweep
// engine does.
func (g *Systems) Results() []cache.SizeResult {
	out := make([]cache.SizeResult, len(g.sys))
	for i, s := range g.sys {
		out[i] = s.SizeResult(g.sizes[i])
	}
	return out
}

// System returns the i-th underlying system, for callers that need
// measures beyond the Target interface (traffic ratios, per-cache stats).
func (g *Systems) System(i int) *cache.System { return g.sys[i] }

// Purge purges every system.
func (g *Systems) Purge() {
	for _, s := range g.sys {
		s.Purge()
	}
}

// StateEqual reports whether every system's logical cache state equals
// its counterpart's in other, which must be a *Systems built from the same
// configurations.
func (g *Systems) StateEqual(other parallel.Replica) bool {
	o := other.(*Systems)
	for i, s := range g.sys {
		if !s.StateEqual(o.sys[i]) {
			return false
		}
	}
	return true
}

// Purges returns the purge count (identical across systems: the driver
// purges them in lockstep).
func (g *Systems) Purges() uint64 { return g.sys[0].Purges() }
