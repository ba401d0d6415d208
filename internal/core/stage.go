package core

import (
	"sync/atomic"
	"time"

	"cacheeval/internal/obs"
)

// stageRun brackets one engine-level run — a sampled or time-parallel pass
// — with a KindRunStart/KindRunEnd pair on a sink. Every method is a no-op
// on a nil sink, and end emits once, so a deferred end pairs the start on
// every error return while the success path ends explicitly.
type stageRun struct {
	sink  obs.Sink
	stage string
	t0    time.Time
	refs  atomic.Int64 // cumulative progress
	ended bool
}

// startStage emits the run's start event.
func startStage(sink obs.Sink, stage string, total int) *stageRun {
	r := &stageRun{sink: sink, stage: stage, t0: time.Now()}
	if sink != nil {
		sink.Observe(obs.Event{Kind: obs.KindRunStart, Stage: stage, Total: int64(total)})
	}
	return r
}

// progress returns a callback for parallel.Run that accumulates the
// workers' reference deltas and reports the running total, or nil without
// a sink.
func (r *stageRun) progress() func(int64) {
	if r.sink == nil {
		return nil
	}
	return func(d int64) {
		r.sink.Observe(obs.Event{Kind: obs.KindProgress, Stage: r.stage, Refs: r.refs.Add(d)})
	}
}

// end emits the run's end event with refs processed; later calls do
// nothing.
func (r *stageRun) end(refs int64) {
	if r.sink == nil || r.ended {
		return
	}
	r.ended = true
	r.sink.Observe(obs.Event{Kind: obs.KindRunEnd, Stage: r.stage, Refs: refs, Elapsed: time.Since(r.t0)})
}
