package core

// The engine ladder of the sampled driver: the serial registry's ladder,
// built without purging (the driver replays purges on the trace clock). A
// single design is the one-config case of its last rung.

import (
	"cacheeval/internal/cache"
	"cacheeval/internal/sampling"
)

// targetBuilder builds one fresh, purge-free engine instance for the
// sampled driver to window over. The instance's Results is a
// non-destructive snapshot.
type targetBuilder func() (sampling.Target, error)

// segmentEngine returns the builder of the fastest sound engine for the
// spec's windowed runs.
func (s SweepSpec) segmentEngine() targetBuilder {
	switch {
	case s.StackInclusion():
		return func() (sampling.Target, error) {
			ms, err := cache.NewMultiSystem(cache.MultiConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
			if err != nil {
				return nil, err
			}
			return multiTarget{ms}, nil
		}
	case s.fanoutSound():
		return func() (sampling.Target, error) {
			return cache.NewFanoutSystem(cache.FanoutConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
		}
	default:
		noPurge := s
		noPurge.Quantum = 0
		cfgs := make([]cache.SystemConfig, len(s.Sizes))
		for i, size := range s.Sizes {
			cfgs[i] = noPurge.systemConfig(size)
		}
		return func() (sampling.Target, error) {
			return sampling.NewSystems(s.Sizes, cfgs)
		}
	}
}

// oneConfig is the segment engine of a single-design run: one purge-free
// System, its result labelled with the design's total (I+D) size.
func oneConfig(design cache.SystemConfig) targetBuilder {
	noPurge := design
	noPurge.PurgeInterval = 0
	return func() (sampling.Target, error) {
		return sampling.NewSystems([]int{sizeOf(design)}, []cache.SystemConfig{noPurge})
	}
}

// multiTarget adapts the one-pass stack engine to sampling.Target,
// reporting through the non-consuming ResultsSnapshot.
type multiTarget struct{ *cache.MultiSystem }

func (t multiTarget) Results() []cache.SizeResult { return t.ResultsSnapshot() }

// exactRun is the sampled driver's exact path: the run it falls back to,
// and the name of the engine that run uses (for spans and the run's
// metadata).
type exactRun struct {
	engine string
	run    func() error
}
