package obs

import (
	"bytes"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures OnEvent calls.
type recorder struct {
	mu     sync.Mutex
	types  []string
	datas  []any
	byType map[string][]any
}

func newRecorder() *recorder { return &recorder{byType: make(map[string][]any)} }

func (r *recorder) on(typ string, data any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.types = append(r.types, typ)
	r.datas = append(r.datas, data)
	r.byType[typ] = append(r.byType[typ], data)
}

// countingSink counts the events it observes by kind. A nil want makes it
// Enabled for every kind; otherwise only for the kinds listed.
type countingSink struct {
	want map[Kind]bool
	mu   sync.Mutex
	seen map[Kind]int
}

func (c *countingSink) Enabled(k Kind) bool { return c.want == nil || c.want[k] }

func (c *countingSink) Observe(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[Kind]int)
	}
	c.seen[e.Kind]++
}

func TestEventProbeLifecycle(t *testing.T) {
	rec := newRecorder()
	next := &countingSink{}
	p := &EventProbe{OnEvent: rec.on}
	s := Tee(p, next)

	s.Observe(Event{Kind: KindRunStart, Stage: "simulate:x", Total: 1000})
	s.Observe(Event{Kind: KindProgress, Stage: "simulate:x", Refs: 500})
	s.Observe(Event{Kind: KindRunEnd, Stage: "simulate:x", Refs: 1000, Elapsed: 2 * time.Second})

	if got := rec.types; len(got) != 3 ||
		got[0] != EventRunStart || got[1] != EventProgress || got[2] != EventRunEnd {
		t.Fatalf("event sequence = %v", rec.types)
	}
	start := rec.datas[0].(RunStartEvent)
	if start.Stage != "simulate:x" || start.TotalRefs != 1000 {
		t.Fatalf("run_start payload = %+v", start)
	}
	prog := rec.datas[1].(ProgressEvent)
	if prog.Refs != 500 || prog.TotalRefs != 1000 || prog.RefsPerSec < 0 {
		t.Fatalf("progress payload = %+v", prog)
	}
	end := rec.datas[2].(RunEndEvent)
	if end.Refs != 1000 || end.ElapsedMS != 2000 || end.RefsPerSec != 500 {
		t.Fatalf("run_end payload = %+v", end)
	}
	if next.seen[KindRunStart] != 1 || next.seen[KindProgress] != 1 || next.seen[KindRunEnd] != 1 {
		t.Fatalf("teed sink saw %v, want one of each lifecycle kind", next.seen)
	}
}

func TestEventProbeProgressThrottle(t *testing.T) {
	rec := newRecorder()
	p := &EventProbe{OnEvent: rec.on, MinProgressInterval: time.Hour}
	p.Observe(Event{Kind: KindRunStart, Stage: "s"})
	for i := 0; i < 100; i++ {
		p.Observe(Event{Kind: KindProgress, Stage: "s", Refs: int64(i)})
	}
	// lastEmit is primed at the start, so an hour-long throttle emits nothing.
	if n := len(rec.byType[EventProgress]); n != 0 {
		t.Fatalf("throttled probe emitted %d progress events, want 0", n)
	}
	// Zero interval emits every event.
	rec2 := newRecorder()
	p2 := &EventProbe{OnEvent: rec2.on}
	p2.Observe(Event{Kind: KindRunStart, Stage: "s"})
	for i := 0; i < 5; i++ {
		p2.Observe(Event{Kind: KindProgress, Stage: "s", Refs: int64(i)})
	}
	if n := len(rec2.byType[EventProgress]); n != 5 {
		t.Fatalf("unthrottled probe emitted %d progress events, want 5", n)
	}
	// An unknown stage (progress without a start) emits nothing rather
	// than panicking.
	p2.Observe(Event{Kind: KindProgress, Stage: "never-started", Refs: 1})
	if n := len(rec2.byType[EventProgress]); n != 5 {
		t.Fatalf("progress for an unstarted stage was emitted")
	}
}

func TestEventProbeExtensions(t *testing.T) {
	rec := newRecorder()
	next := &countingSink{want: map[Kind]bool{KindMissCauses: true, KindHierarchyRun: true}}
	s := Tee(&EventProbe{OnEvent: rec.on}, next)

	s.Observe(Event{Kind: KindRunStart, Stage: "s", Total: 100})
	s.Observe(Event{Kind: KindMissCauses, Stage: "s", Compulsory: 1, Capacity: 2, Conflict: 3})
	s.Observe(Event{Kind: KindHierarchyRun, Stage: "s", L2Fetches: 10, L2FetchMisses: 2, L2Writes: 5, L2WriteMisses: 1, VictimHits: 7})

	mc := rec.byType[EventMissCauses][0].(MissCausesEvent)
	if mc.Compulsory != 1 || mc.Capacity != 2 || mc.Conflict != 3 {
		t.Fatalf("miss_causes payload = %+v", mc)
	}
	hr := rec.byType[EventHierarchyRun][0].(HierarchyRunEvent)
	if hr.L2Fetches != 10 || hr.L2FetchMisses != 2 || hr.L2Writes != 5 || hr.L2WriteMisses != 1 || hr.VictimHits != 7 {
		t.Fatalf("hierarchy payload = %+v", hr)
	}
	// The teed sink is Enabled for miss causes and hierarchy runs only;
	// only those kinds reach it.
	if len(next.seen) != 2 || next.seen[KindMissCauses] != 1 || next.seen[KindHierarchyRun] != 1 {
		t.Fatalf("teed sink saw %v, want 1 miss_causes and 1 hierarchy", next.seen)
	}
}

func TestEventProbeLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	p := &EventProbe{RequestID: "req-abc123", Logger: logger}
	p.Observe(Event{Kind: KindRunStart, Stage: "simulate:y", Total: 10})
	p.Observe(Event{Kind: KindRunEnd, Stage: "simulate:y", Refs: 10, Elapsed: time.Millisecond})
	out := buf.String()
	if strings.Count(out, `"request_id":"req-abc123"`) != 2 {
		t.Fatalf("log lines missing request_id:\n%s", out)
	}
	if !strings.Contains(out, "engine: run start") || !strings.Contains(out, "engine: run end") {
		t.Fatalf("log lines missing lifecycle messages:\n%s", out)
	}
}

func TestEventProbeNilOnEvent(t *testing.T) {
	next := &countingSink{}
	s := Tee(&EventProbe{}, next) // no OnEvent: teed sinks still see everything
	s.Observe(Event{Kind: KindRunStart, Stage: "s", Total: 1})
	s.Observe(Event{Kind: KindProgress, Stage: "s", Refs: 1})
	s.Observe(Event{Kind: KindRunEnd, Stage: "s", Refs: 1, Elapsed: time.Millisecond})
	if next.seen[KindRunStart] != 1 || next.seen[KindProgress] != 1 || next.seen[KindRunEnd] != 1 {
		t.Fatalf("nil OnEvent dropped teed events: %v", next.seen)
	}
}

func TestEventProbeConcurrentStages(t *testing.T) {
	rec := newRecorder()
	p := &EventProbe{OnEvent: rec.on}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := "simulate:" + string(rune('a'+g))
			p.Observe(Event{Kind: KindRunStart, Stage: stage, Total: 100})
			for i := 0; i < 50; i++ {
				p.Observe(Event{Kind: KindProgress, Stage: stage, Refs: int64(i)})
			}
			p.Observe(Event{Kind: KindRunEnd, Stage: stage, Refs: 100, Elapsed: time.Millisecond})
		}(g)
	}
	wg.Wait()
	if n := len(rec.byType[EventRunStart]); n != 8 {
		t.Fatalf("got %d run_start events, want 8", n)
	}
	if n := len(rec.byType[EventRunEnd]); n != 8 {
		t.Fatalf("got %d run_end events, want 8", n)
	}
}

func TestSinkTee(t *testing.T) {
	lifecycle := &countingSink{want: map[Kind]bool{KindRunStart: true, KindRunEnd: true}}
	causes := &countingSink{want: map[Kind]bool{KindMissCauses: true}}
	s := Tee(lifecycle, causes)
	for _, k := range []Kind{KindRunStart, KindRunEnd, KindMissCauses} {
		if !s.Enabled(k) {
			t.Errorf("Tee not Enabled for kind %d one of its sinks wants", k)
		}
	}
	if s.Enabled(KindProgress) {
		t.Error("Tee Enabled for a kind none of its sinks wants")
	}
	for k := KindRunStart; k <= KindHierarchyRun; k++ {
		s.Observe(Event{Kind: k, Stage: "s"})
	}
	if len(lifecycle.seen) != 2 || lifecycle.seen[KindRunStart] != 1 || lifecycle.seen[KindRunEnd] != 1 {
		t.Errorf("lifecycle sink saw %v", lifecycle.seen)
	}
	if len(causes.seen) != 1 || causes.seen[KindMissCauses] != 1 {
		t.Errorf("causes sink saw %v", causes.seen)
	}
}

func TestSinkEnabledOptIn(t *testing.T) {
	// Only the sinks that consume 3C totals may switch the tracker on.
	for name, c := range map[string]struct {
		sink Sink
		want bool
	}{
		"Discard":       {Discard, false},
		"ProgressProbe": {NewProgressProbe(&bytes.Buffer{}), false},
		"EventProbe":    {&EventProbe{}, true},
	} {
		if got := c.sink.Enabled(KindMissCauses); got != c.want {
			t.Errorf("%s.Enabled(KindMissCauses) = %v, want %v", name, got, c.want)
		}
	}
	for k := KindRunStart; k <= KindHierarchyRun; k++ {
		if Discard.Enabled(k) {
			t.Errorf("Discard Enabled for kind %d", k)
		}
	}
}

func TestSinkEventIsPlainValue(t *testing.T) {
	// Emitting an Event must never allocate: no field may hold a pointer,
	// interface, slice, map, func or channel.
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Ptr, reflect.Interface, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("Event.%s is a %s", f.Name, f.Type.Kind())
		}
	}
}
