package core

// The engine ladder of the sampled and time-parallel drivers: the serial
// registry's ladder, built without purging (both drivers replay purges on
// the trace clock). A single design is the one-config case of its last rung.

import (
	"cacheeval/internal/cache"
	"cacheeval/internal/parallel"
	"cacheeval/internal/sampling"
)

// segmentTarget is one purge-free engine instance: a sampling.Target the
// sampled driver windows over, and a parallel.Replica the parallel driver
// runs one of per segment. Results is a non-destructive snapshot either
// way.
type segmentTarget interface {
	sampling.Target
	parallel.Replica
}

// segmentEngine is the ladder's pick for a run: the engine's registry
// name, whether its state is a Mattson stack (which cannot converge from a
// cold start, so it segments only at purge boundaries), and a builder for
// one fresh instance.
type segmentEngine struct {
	name       string
	stackState bool
	build      func() (segmentTarget, error)
}

// segmentEngine returns the fastest sound engine for the spec's windowed
// and segmented runs.
func (s SweepSpec) segmentEngine() segmentEngine {
	switch {
	case s.StackInclusion():
		return segmentEngine{multiEngine.Name, true, func() (segmentTarget, error) {
			ms, err := cache.NewMultiSystem(cache.MultiConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
			if err != nil {
				return nil, err
			}
			return multiTarget{ms}, nil
		}}
	case s.fanoutSound():
		return segmentEngine{fanoutEngine.Name, false, func() (segmentTarget, error) {
			fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
				Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split,
			})
			if err != nil {
				return nil, err
			}
			return fanTarget{fs}, nil
		}}
	default:
		noPurge := s
		noPurge.Quantum = 0
		cfgs := make([]cache.SystemConfig, len(s.Sizes))
		for i, size := range s.Sizes {
			cfgs[i] = noPurge.systemConfig(size)
		}
		return segmentEngine{perSizeEngine.Name, false, func() (segmentTarget, error) {
			return sampling.NewSystems(s.Sizes, cfgs)
		}}
	}
}

// oneConfig is the segment engine of a single-design run: one purge-free
// System, its result labelled with the design's total (I+D) size.
func oneConfig(design cache.SystemConfig) segmentEngine {
	noPurge := design
	noPurge.PurgeInterval = 0
	return segmentEngine{name: perSizeEngine.Name, build: func() (segmentTarget, error) {
		return sampling.NewSystems([]int{sizeOf(design)}, []cache.SystemConfig{noPurge})
	}}
}

// multiTarget adapts the one-pass stack engine. Results must not consume
// the engine (the reconciliation chain snapshots mid-stream), so it maps
// to ResultsSnapshot rather than the finishing Results.
type multiTarget struct{ *cache.MultiSystem }

func (t multiTarget) Results() []cache.SizeResult { return t.ResultsSnapshot() }
func (t multiTarget) StateEqual(o parallel.Replica) bool {
	return t.MultiSystem.StateEqual(o.(multiTarget).MultiSystem)
}

// fanTarget adapts the prefetch fan-out engine, whose Results is already a
// pure snapshot.
type fanTarget struct{ *cache.FanoutSystem }

func (t fanTarget) StateEqual(o parallel.Replica) bool {
	return t.FanoutSystem.StateEqual(o.(fanTarget).FanoutSystem)
}

// exactRun is a driver's exact path: the run it falls back or delegates
// to, and the name of the engine that run uses (for spans and the run's
// metadata).
type exactRun struct {
	engine string
	run    func() error
}
