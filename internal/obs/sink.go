package obs

import (
	"context"
	"time"
)

// ProgressInterval is how many references a simulation engine processes
// between KindProgress events. A power of two so the engines' interval
// check compiles to a mask.
const ProgressInterval = 1 << 16

// Kind identifies what an Event reports, and so which of its fields are
// set. The job stream's payload structs (see EventProbe) document each.
type Kind uint8

const (
	KindRunStart     Kind = iota + 1 // Total
	KindProgress                     // Refs so far, every ProgressInterval refs
	KindRunEnd                       // Refs, Elapsed
	KindMissCauses                   // Compulsory, Capacity, Conflict; after KindRunEnd
	KindHierarchyRun                 // L2 event totals, VictimHits; after KindRunEnd
)

// Event is one report from a simulation engine. It is a plain value —
// fixed fields, no pointers — so emitting one allocates nothing; Kind
// says which fields are meaningful. Stage names the run; it is chosen by
// whoever installs the sink, not by the engine.
type Event struct {
	Kind  Kind
	Stage string

	Total   int64         // expected run length, 0 when unknown
	Refs    int64         // references processed so far
	Elapsed time.Duration // run wall time

	// 3C miss causes ([Hill]'s classification via a same-capacity
	// fully-associative LRU shadow), from the per-size engine only.
	Compulsory, Capacity, Conflict uint64

	L2Fetches, L2FetchMisses, L2Writes, L2WriteMisses, VictimHits uint64
}

// Sink receives the simulation engines' events. Engines hold a nil sink by
// default and guard every emission behind a nil check, so the
// uninstrumented hot path costs one predictable branch per reference and
// allocates nothing; see DESIGN.md §8.
//
// Enabled reports whether the sink wants events of kind k, in the manner
// of slog.Handler.Enabled. Producers may skip events a sink does not want,
// and must ask before producing one that costs simulation work: an engine
// switches on 3C attribution only when Enabled(KindMissCauses) holds at
// the time the sink is installed. Observe is called from whatever
// goroutine runs the engine and must be safe for concurrent use when the
// sink is shared across parallel runs.
type Sink interface {
	Observe(Event)
	Enabled(Kind) bool
}

// Discard is a Sink that wants nothing and drops everything. Installing it
// (rather than nil) exercises the engines' instrumented path without
// switching on 3C attribution; the benchmark suite does exactly that so
// CI's bench-smoke gate guards the overhead.
var Discard Sink = discard{}

type discard struct{}

func (discard) Observe(Event)     {}
func (discard) Enabled(Kind) bool { return false }

// Tee returns a Sink that hands each event to every given (non-nil) sink
// that is Enabled for its kind, in order. It is Enabled for a kind when
// any of them is.
func Tee(sinks ...Sink) Sink { return tee(sinks) }

type tee []Sink

func (t tee) Observe(e Event) {
	for _, s := range t {
		if s.Enabled(e.Kind) {
			s.Observe(e)
		}
	}
}

func (t tee) Enabled(k Kind) bool {
	for _, s := range t {
		if s.Enabled(k) {
			return true
		}
	}
	return false
}

// WithSink returns a context carrying an engine sink, for call paths that
// thread context rather than an options struct (core.EvaluateRefsContext).
func WithSink(ctx context.Context, s Sink) context.Context {
	return context.WithValue(ctx, sinkKey, s)
}

// SinkFrom returns the context's sink, or nil.
func SinkFrom(ctx context.Context) Sink {
	s, _ := ctx.Value(sinkKey).(Sink)
	return s
}
