package cache

import (
	"time"

	"cacheeval/internal/obs"
)

// engineSink is the instrumentation state embedded in the engines that
// own a Run loop (System, Hierarchy). The one-pass sweep engines
// (MultiSystem, FanoutSystem) have none: core.RunSweep feeds them and emits
// their events. The sink is nil unless a caller installs one, and each Run
// loop guards its progress events behind that nil check, so the
// uninstrumented hot path pays one predictable branch per reference and
// allocates nothing — the engine benchmarks run with obs.Discard installed
// precisely so CI's bench-smoke gate keeps the instrumented path honest
// too. See DESIGN.md §8.
type engineSink struct {
	sink  obs.Sink
	stage string
	total int64
}

// SetSink installs an event sink for subsequent Run calls. stage names the
// run in its events (the engine does not invent names); totalRefs is the
// expected run length when known, 0 otherwise. A nil sink uninstalls.
func (e *engineSink) SetSink(s obs.Sink, stage string, totalRefs int64) {
	e.sink, e.stage, e.total = s, stage, totalRefs
}

// runStart emits the run's start event and returns its start time (zero
// when no sink is installed — runEnd only reads it when a sink is present).
func (e *engineSink) runStart() time.Time {
	if e.sink == nil {
		return time.Time{}
	}
	e.sink.Observe(obs.Event{Kind: obs.KindRunStart, Stage: e.stage, Total: e.total})
	return time.Now()
}

// progress emits a progress event; Run loops call it, behind their own
// nil-sink check, every obs.ProgressInterval references.
func (e *engineSink) progress(n int) {
	e.sink.Observe(obs.Event{Kind: obs.KindProgress, Stage: e.stage, Refs: int64(n)})
}

// runEnd emits the run's end event.
func (e *engineSink) runEnd(n int, t0 time.Time) {
	if e.sink != nil {
		e.sink.Observe(obs.Event{Kind: obs.KindRunEnd, Stage: e.stage, Refs: int64(n), Elapsed: time.Since(t0)})
	}
}
