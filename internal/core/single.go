package core

// Single-design sampled and time-parallel evaluation: one-config runs of
// the sampled and parallel sweep engines' drivers.

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
	lineSize := design.Unified.LineSize
	if design.Split {
		lineSize = design.I.LineSize
	}
	var rep Report
	var exactErr error
	res, info, err := runSampled(ctx, obs.SinkFrom(ctx), "simulate:"+name, refs, sampledPass{
		opts:    *o,
		lines:   linesOf(sizeOf(design), lineSize),
		quantum: design.PurgeInterval,
		configs: 1,
		engine:  oneConfig(design),
		exact: exactRun{"system", func() error {
			rep, exactErr = EvaluateRefsContext(ctx, design, name, refs)
			return exactErr
		}},
	})
	if err != nil {
		return Report{}, nil, nil, labelled(err, exactErr, name)
	}
	if res == nil {
		return rep, nil, info, nil
	}
	r := res.results[0]
	return newReport(design, nil, name, r, tally{
		refs:     uint64(len(refs)),
		refBytes: res.target.(*sampling.Systems).System(0).RefBytes(),
		scale:    res.scale,
	}), r.CI, info, nil
}

// EvaluateParallelRefsContext is EvaluateRefsContext with time-parallel
// simulation: the single-design analogue of the sweep engine, for callers
// holding a materialized stream (the evaluation service, cachesim
// -parallel). Results are bit-identical to the serial path; the returned
// ParallelInfo reports the plan, or why the run stayed serial. 3C miss
// attribution (obs.KindMissCauses) is not available on the parallel path:
// segment replicas would misattribute each other's compulsory misses, so
// replicas carry no sink.
func EvaluateParallelRefsContext(ctx context.Context, design cache.SystemConfig, name string, refs []trace.Ref, po *ParallelOptions) (Report, *ParallelInfo, error) {
	if err := po.Validate(); err != nil {
		return Report{}, nil, err
	}
	if err := design.Validate(); err != nil {
		return Report{}, nil, err
	}
	var opts ParallelOptions
	if po != nil {
		opts = *po
	}
	var rep Report
	var exactErr error
	res, info, err := runParallel(ctx, obs.SinkFrom(ctx), "simulate:"+name, refs, parallelPass{
		opts:    opts,
		quantum: design.PurgeInterval,
		random:  replOf(design) == cache.Random,
		engine:  oneConfig(design),
		exact: exactRun{"system", func() error {
			rep, exactErr = EvaluateRefsContext(ctx, design, name, refs)
			return exactErr
		}},
	})
	if err != nil {
		return Report{}, nil, labelled(err, exactErr, name)
	}
	if res == nil {
		return rep, info, nil
	}
	r := res.Results[0]
	return newReport(design, nil, name, r, tally{
		refs: r.Ref.TotalRefs(), refBytes: refBytesOf(refs), scale: 1,
	}), info, nil
}

// labelled names the workload in a driver error, unless the error came
// from the exact path (exactErr), which names it already.
func labelled(err, exactErr error, name string) error {
	if err == exactErr {
		return err
	}
	return fmt.Errorf("core: evaluating %s: %w", name, err)
}

// refBytesOf returns the processor-request byte count a cacheless system
// would transfer for refs, accumulated exactly as System.Ref does.
func refBytesOf(refs []trace.Ref) uint64 {
	var n uint64
	for _, ref := range refs {
		n += max(uint64(ref.Size), 1)
	}
	return n
}

// replOf returns the replacement policy of the design's active cache(s);
// split designs use the same policy on both sides in this repository, but
// Random on either side disqualifies the parallel path.
func replOf(design cache.SystemConfig) cache.Replacement {
	if design.Split {
		if design.I.Repl == cache.Random || design.D.Repl == cache.Random {
			return cache.Random
		}
		return design.I.Repl
	}
	return design.Unified.Repl
}
