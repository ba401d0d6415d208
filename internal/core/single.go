package core

// Single-design sampled evaluation: a one-config run of the sampled sweep
// engine's driver.

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

// labelled names the workload in a driver error, unless the error came
// from the exact path (exactErr), which names it already.
func labelled(err, exactErr error, name string) error {
	if err == exactErr {
		return err
	}
	return fmt.Errorf("core: evaluating %s: %w", name, err)
}
