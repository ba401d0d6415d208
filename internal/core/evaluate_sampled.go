package core

import (
	"context"
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/sampling"
	"cacheeval/internal/trace"
)

// EvaluateSampledRefsContext is EvaluateRefsContext under interval
// sampling: the single-design analogue of the sampled sweep engine. It
// returns the report (reference-level ratios from the counted windows,
// byte counts extrapolated to trace scale), the miss-ratio confidence
// interval, and the sampling metadata. Nil options or a zero error budget
// degrade to the exact path bit-identically, with a nil CI; a fallback
// also produces exact numbers, with the reason recorded in the info.
func EvaluateSampledRefsContext(ctx context.Context, design cache.SystemConfig, name string, refs []trace.Ref, o *SampledOptions) (Report, *cache.MissCI, *SampledInfo, error) {
	if err := o.Validate(); err != nil {
		return Report{}, nil, nil, err
	}
	if o == nil || o.ErrorBudget == 0 {
		rep, err := EvaluateRefsContext(ctx, design, name, refs)
		return rep, nil, nil, err
	}
	od := o.withDefaults()
	noPurge := design
	noPurge.PurgeInterval = 0
	size := design.Unified.Size
	if design.Split {
		size = design.I.Size + design.D.Size
	}
	stage := "simulate:" + name
	sink := obs.SinkFrom(ctx)
	lineSize := design.Unified.LineSize
	if design.Split {
		lineSize = design.I.LineSize
	}
	lines := 1
	if lineSize > 0 {
		lines = size / lineSize
	}
	cycle := od.CycleRefs
	if cycle == 0 {
		cycle = design.PurgeInterval
	}
	window, align, warmFrac, initFrac := planShape(od, len(refs), lines, cycle)
	ctrl := sampling.Controller{
		RelErrBudget:    od.ErrorBudget,
		Confidence:      od.Confidence,
		InitialFraction: initFrac,
		MaxFraction:     od.MaxFraction,
		WindowRefs:      window,
		WarmupFrac:      warmFrac,
		AlignRefs:       align,
		MaxRounds:       od.MaxRounds,
		Quantum:         design.PurgeInterval,
		OnRound: func(round int, p sampling.Plan) func() {
			sp := obs.StartSpan(ctx, fmt.Sprintf("%s:sampled:round%d", stage, round))
			return sp.End
		},
		OnRoundDone: roundReporter(sink, stage, od.ErrorBudget),
	}
	run := startStage(sink, stage+":sampled", len(refs))
	defer run.end(0) // an error return still closes the stage
	var g *sampling.Systems
	outc, err := ctrl.Run(len(refs), 1,
		func() trace.Reader { return trace.NewContextReader(ctx, trace.NewSliceReader(refs)) },
		func() (sampling.Target, error) {
			var err error
			g, err = sampling.NewSystems([]int{size}, []cache.SystemConfig{noPurge})
			return g, err
		},
	)
	if err != nil {
		return Report{}, nil, nil, fmt.Errorf("core: evaluating %s: %w", name, err)
	}
	info := &SampledInfo{
		ErrorBudget: od.ErrorBudget,
		Confidence:  od.Confidence,
		Rounds:      len(outc.Attempts),
		TotalRefs:   uint64(len(refs)),
	}
	if outc.FellBack {
		info.FellBack = true
		info.FallbackReason = outc.Reason
		info.SimulatedRefs = outc.SimulatedRefs() + uint64(len(refs))
		info.SampledFraction = fracOf(info.SimulatedRefs, info.TotalRefs)
		rep, err := EvaluateRefsContext(ctx, design, name, refs)
		if err != nil {
			return Report{}, nil, nil, err
		}
		endSampled(run, stage, info)
		return rep, nil, info, nil
	}
	est := outc.Est.PerSize[0]
	sys := g.System(0)
	rs := est.Ref
	all := sys.Stats()
	scale := 1.0
	if outc.Est.SimulatedRefs > 0 {
		scale = float64(outc.Est.TotalRefs) / float64(outc.Est.SimulatedRefs)
	}
	scaled := all.Scaled(scale)
	dataCache := sys.Unified()
	if design.Split {
		dataCache = sys.DCache()
	}
	rep := Report{
		Design:            design,
		Workload:          name,
		Refs:              uint64(len(refs)),
		MissRatio:         est.MissRatio,
		InstrMiss:         rs.KindMissRatio(trace.IFetch),
		DataMiss:          rs.DataMissRatio(),
		ReadMiss:          rs.KindMissRatio(trace.Read),
		WriteMiss:         rs.KindMissRatio(trace.Write),
		BytesFromMemory:   scaled.BytesFromMemory,
		BytesToMemory:     scaled.BytesToMemory,
		TrafficRatio:      sys.TrafficRatio(),
		DirtyPushFraction: dataCache.Stats().FracPushesDirty(),
		PrefetchAccuracy:  all.PrefetchAccuracy(),
	}
	ci := &cache.MissCI{Level: est.CI.Level, Lo: est.CI.Lo, Hi: est.CI.Hi, Windows: outc.Est.Windows}
	info.AchievedRelError = outc.Achieved
	info.Windows = outc.Est.Windows
	info.SimulatedRefs = outc.SimulatedRefs()
	info.CountedRefs = outc.Est.CountedRefs
	info.SampledFraction = fracOf(info.SimulatedRefs, info.TotalRefs)
	endSampled(run, stage, info)
	return rep, ci, info, nil
}
