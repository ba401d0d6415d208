package core

import (
	"time"

	"cacheeval/internal/obs"
)

// stageRun brackets one streamed pass with a KindRunStart/KindRunEnd pair
// on a sink. Every method is a no-op on a nil sink, and end emits once, so
// a deferred end pairs the start on every error return while the success
// path ends explicitly.
type stageRun struct {
	sink  obs.Sink
	stage string
	t0    time.Time
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

// end emits the run's end event with refs processed; later calls do
// nothing.
func (r *stageRun) end(refs int64) {
	if r.sink == nil || r.ended {
		return
	}
	r.ended = true
	r.sink.Observe(obs.Event{Kind: obs.KindRunEnd, Stage: r.stage, Refs: refs, Elapsed: time.Since(r.t0)})
}
