package obs

import (
	"log/slog"
	"time"
)

// Event type names emitted by EventProbe, one per Kind. The jobs layer
// forwards them verbatim as the "type" field of its NDJSON stream, so they
// are part of the public API surface (documented in README "Jobs and live
// progress").
const (
	EventRunStart     = "run_start"
	EventProgress     = "progress"
	EventRunEnd       = "run_end"
	EventHierarchyRun = "hierarchy"
	EventMissCauses   = "miss_causes"
)

// RunStartEvent is the payload of an EventRunStart event.
type RunStartEvent struct {
	Stage     string `json:"stage"`
	TotalRefs int64  `json:"total_refs,omitempty"`
}

// ProgressEvent is the payload of an EventProgress event: one throttled
// engine progress tick.
type ProgressEvent struct {
	Stage      string  `json:"stage"`
	Refs       int64   `json:"refs"`
	TotalRefs  int64   `json:"total_refs,omitempty"`
	RefsPerSec float64 `json:"refs_per_sec"`
}

// RunEndEvent is the payload of an EventRunEnd event.
type RunEndEvent struct {
	Stage      string  `json:"stage"`
	Refs       int64   `json:"refs"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	RefsPerSec float64 `json:"refs_per_sec"`
}

// HierarchyRunEvent is the payload of an EventHierarchyRun event (see
// KindHierarchyRun).
type HierarchyRunEvent struct {
	Stage         string `json:"stage"`
	L2Fetches     uint64 `json:"l2_fetches"`
	L2FetchMisses uint64 `json:"l2_fetch_misses"`
	L2Writes      uint64 `json:"l2_writes"`
	L2WriteMisses uint64 `json:"l2_write_misses"`
	VictimHits    uint64 `json:"victim_hits"`
}

// MissCausesEvent is the payload of an EventMissCauses event (see
// KindMissCauses).
type MissCausesEvent struct {
	Stage      string `json:"stage"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
}

// payload renders an event as its job-stream type name and JSON payload.
// A progress event's Total and Elapsed are the stage's, filled in by
// EventProbe from its RunStart.
func payload(e Event) (string, any) {
	switch e.Kind {
	case KindRunStart:
		return EventRunStart, RunStartEvent{Stage: e.Stage, TotalRefs: e.Total}
	case KindProgress:
		return EventProgress, ProgressEvent{
			Stage: e.Stage, Refs: e.Refs, TotalRefs: e.Total,
			RefsPerSec: refsPerSec(e.Refs, e.Elapsed),
		}
	case KindRunEnd:
		return EventRunEnd, RunEndEvent{
			Stage: e.Stage, Refs: e.Refs,
			ElapsedMS:  float64(e.Elapsed) / float64(time.Millisecond),
			RefsPerSec: refsPerSec(e.Refs, e.Elapsed),
		}
	case KindMissCauses:
		return EventMissCauses, MissCausesEvent{
			Stage: e.Stage, Compulsory: e.Compulsory, Capacity: e.Capacity, Conflict: e.Conflict,
		}
	case KindHierarchyRun:
		return EventHierarchyRun, HierarchyRunEvent{
			Stage: e.Stage, L2Fetches: e.L2Fetches, L2FetchMisses: e.L2FetchMisses,
			L2Writes: e.L2Writes, L2WriteMisses: e.L2WriteMisses, VictimHits: e.VictimHits,
		}
	}
	return "", nil
}

// EventProbe is a Sink that turns engine events into typed payloads for an
// event bus: every event becomes one OnEvent call with its type name and
// one of the payload structs above. Progress events are throttled per
// stage by MinProgressInterval; everything else passes through
// unthrottled. It is Enabled for every kind, 3C attribution included.
//
// EventProbe exists for instrumented runs only — the uninstrumented hot
// path carries a nil sink and never sees it — so it may allocate freely.
// Events arrive from whatever goroutines run the engines; OnEvent must be
// safe for concurrent use (the jobs layer's publish is). To feed a second
// consumer too, install Tee(eventProbe, other). RequestID and Logger carry
// the originating request's identity into engine log lines: events carry
// no context, so without them every line logged from inside an engine
// goroutine would lose the X-Request-ID the access log is keyed by.
type EventProbe struct {
	// OnEvent receives every adapted event; nil drops them.
	OnEvent func(typ string, data any)
	// RequestID is the originating request's ID, stamped onto log lines.
	RequestID string
	// Logger, when non-nil, receives engine run start/end lines. Pass the
	// request-scoped logger so the lines correlate with the access log.
	Logger *slog.Logger
	// MinProgressInterval throttles ProgressEvent emission per stage; the
	// zero value emits every engine progress event (every
	// ProgressInterval refs).
	MinProgressInterval time.Duration

	clocks stageClocks
}

// Enabled reports true for every kind.
func (p *EventProbe) Enabled(Kind) bool { return true }

// Observe tracks each stage's rate clock between its start and end, drops
// throttled progress events, logs run starts and ends, and hands the rest
// to OnEvent.
func (p *EventProbe) Observe(e Event) {
	switch e.Kind {
	case KindRunStart:
		p.clocks.open(e.Stage, e.Total)
		if p.Logger != nil {
			p.Logger.Info("engine: run start",
				"stage", e.Stage, "total_refs", e.Total, "request_id", p.RequestID)
		}
	case KindProgress:
		var ok bool
		if e.Elapsed, e.Total, ok = p.clocks.tick(e.Stage, p.MinProgressInterval); !ok {
			return
		}
	case KindRunEnd:
		p.clocks.close(e.Stage)
		if p.Logger != nil {
			p.Logger.Info("engine: run end",
				"stage", e.Stage, "refs", e.Refs,
				"elapsed_ms", float64(e.Elapsed)/float64(time.Millisecond),
				"request_id", p.RequestID)
		}
	}
	if p.OnEvent != nil {
		p.OnEvent(payload(e))
	}
}
