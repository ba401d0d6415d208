package core

// Sink conformance of every run: the one-pass sweeps, each size of a
// per-size sweep and each single-design evaluation all emit their events
// from a SweepStream, so the event protocol is pinned here, through the
// paths every run takes.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// sinkSpecs are the sweep specs that select the one-pass engines, by the
// engine's type name.
func sinkSpecs(quantum int) map[string]SweepSpec {
	sizes := []int{256, 1024, 8192}
	return map[string]SweepSpec{
		"MultiSystem":  {Sizes: sizes, LineSize: 16, Split: true, Quantum: quantum},
		"FanoutSystem": {Sizes: sizes, LineSize: 16, Quantum: quantum, Fetch: cache.PrefetchAlways},
	}
}

// TestProbeLeavesSweepEnginesBitIdentical: installing obs.Discard or a
// recording sink leaves a one-pass sweep's results bit-identical to a run
// without one.
func TestProbeLeavesSweepEnginesBitIdentical(t *testing.T) {
	refs := simcheck.Stream(42, obs.ProgressInterval+5000)
	for name, spec := range sinkSpecs(20000) {
		run := func(sink obs.Sink) SweepOut {
			out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), sink, "probe", int64(len(refs)))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		bare := run(nil)
		if got := run(obs.Discard); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: Discard changed results", name)
		}
		if got := run(&eventLog{}); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: recording sink changed results", name)
		}
	}
}

// countingSink records run lifecycle event counts and the final reference
// total.
type countingSink struct {
	starts, progresses, ends atomic.Int64
	lastRefs                 atomic.Int64
	total                    atomic.Int64
}

func (p *countingSink) Enabled(k obs.Kind) bool {
	return k == obs.KindRunStart || k == obs.KindProgress || k == obs.KindRunEnd
}

func (p *countingSink) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindRunStart:
		p.starts.Add(1)
		p.total.Store(e.Total)
	case obs.KindProgress:
		p.progresses.Add(1)
	case obs.KindRunEnd:
		p.ends.Add(1)
		p.lastRefs.Store(e.Refs)
	}
}

// probeStream is long enough to cross obs.ProgressInterval so the progress
// event path is exercised, not just start/end.
func probeStream(t *testing.T) []trace.Ref {
	t.Helper()
	n := obs.ProgressInterval + 5000
	if testing.Short() {
		n = obs.ProgressInterval + 500
	}
	return simcheck.Stream(42, n)
}

// TestProbeLeavesSystemBitIdentical: installing obs.Discard or a recording
// sink leaves a single-design evaluation — a cache.System run as a stream —
// bit-identical to a run without one.
func TestProbeLeavesSystemBitIdentical(t *testing.T) {
	refs := probeStream(t)
	design := cache.SystemConfig{
		Unified:       cache.Config{Size: 4096, LineSize: 16, Fetch: cache.PrefetchAlways},
		PurgeInterval: 20000,
	}
	run := func(p obs.Sink) Report {
		ctx := context.Background()
		if p != nil {
			ctx = obs.WithSink(ctx, p)
		}
		rep, err := EvaluateRefsContext(ctx, design, "test", refs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bare := run(nil)
	for name, p := range map[string]obs.Sink{"nop": obs.Discard, "counting": &countingSink{}} {
		if got := run(p); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s sink changed System results:\n got %+v\nwant %+v", name, got, bare)
		}
	}
}

// TestProbeCallbacks pins one per-size run's events: one start carrying
// the stream length, one end carrying the references simulated, and a
// progress event every obs.ProgressInterval references.
func TestProbeCallbacks(t *testing.T) {
	refs := probeStream(t)
	p := &countingSink{}
	spec := SweepSpec{Sizes: []int{1024}, LineSize: 16}
	out, err := perSizeEngine.Run(context.Background(), spec, trace.NewSliceReader(refs), p, "system", int64(len(refs)))
	if err != nil {
		t.Fatal(err)
	}
	n := out.Results[0].Ref.TotalRefs()
	if p.starts.Load() != 1 || p.ends.Load() != 1 {
		t.Errorf("starts=%d ends=%d, want 1/1", p.starts.Load(), p.ends.Load())
	}
	if p.total.Load() != int64(len(refs)) {
		t.Errorf("total=%d, want %d", p.total.Load(), len(refs))
	}
	if p.lastRefs.Load() != int64(n) {
		t.Errorf("RunEnd refs=%d, want %d", p.lastRefs.Load(), n)
	}
	if want := int64(len(refs) / obs.ProgressInterval); p.progresses.Load() != want {
		t.Errorf("progress events=%d, want %d", p.progresses.Load(), want)
	}
}

// hierSink records the batched hierarchy report.
type hierSink struct {
	stage      string
	fetches    uint64
	writes     uint64
	victimHits uint64
	calls      int
}

func (p *hierSink) Enabled(obs.Kind) bool { return true }

func (p *hierSink) Observe(e obs.Event) {
	if e.Kind != obs.KindHierarchyRun {
		return
	}
	p.stage, p.fetches, p.writes, p.victimHits = e.Stage, e.L2Fetches, e.L2Writes, e.VictimHits
	p.calls++
}

type errReader struct{ err error }

func (e errReader) Read() (trace.Ref, error) { return trace.Ref{}, e.err }

// hierRefs is a read/write stream whose footprint exceeds an L1 of l1Size
// bytes but sits inside a comfortably larger L2, so both levels see misses
// and the L1 generates write-back traffic.
func hierRefs(n, l1Size int) []trace.Ref {
	refs := make([]trace.Ref, n)
	footprint := uint64(4 * l1Size)
	for i := range refs {
		addr := (uint64(i) * 52) % footprint
		k := trace.Read
		if i%3 == 0 {
			k = trace.Write
		}
		refs[i] = trace.Ref{Addr: addr, Size: 4, Kind: k}
	}
	return refs
}

// TestHierarchyRunReportsProbe pins the batched hierarchy report of a
// two-level run: emitted once, after the run end, with the L2 totals and
// the L1's victim hits — by each size of a per-size sweep and by an
// evaluation whose reader fails.
func TestHierarchyRunReportsProbe(t *testing.T) {
	spec := SweepSpec{Sizes: []int{256}, LineSize: 16, Victim: 4, L2: &L2Spec{Size: 2048, LineSize: 32}}
	p := &hierSink{}
	// A cyclic sweep over 17 lines through the fully-associative 16-line
	// L1 evicts, on every miss, exactly the line referenced next — so
	// after warm-up every access is a victim-buffer hit.
	refs := hierRefs(5000, 256)
	for i := 0; i < 2000; i++ {
		refs = append(refs, trace.Ref{Addr: uint64(i%17) * 16, Size: 4, Kind: trace.Read})
	}
	out, err := perSizeEngine.Run(context.Background(), spec, trace.NewSliceReader(refs), p, "hier", int64(len(refs)))
	if err != nil {
		t.Fatal(err)
	}
	r := out.Results[0]
	if p.calls != 1 || p.stage != "hier:256" {
		t.Fatalf("HierarchyRun calls = %d stage %q", p.calls, p.stage)
	}
	if p.fetches != r.H.Ev.Fetches || p.writes != r.H.Ev.Writes {
		t.Errorf("sink saw %d/%d, stats say %d/%d", p.fetches, p.writes, r.H.Ev.Fetches, r.H.Ev.Writes)
	}
	if p.victimHits != r.U.VictimHits || p.victimHits == 0 {
		t.Errorf("sink victim hits = %d, stats %d", p.victimHits, r.U.VictimHits)
	}

	// A read error surfaces from the run and still emits the batched report.
	boom := errors.New("boom")
	p2 := &hierSink{}
	l2 := spec.L2.config(spec.LineSize)
	if _, err := evaluate(obs.WithSink(context.Background(), p2), spec.systemConfig(256), &l2, "hier", errReader{boom}); !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want boom", err)
	}
	if p2.calls != 1 {
		t.Fatal("errored run must still report")
	}
}

// cancelingSink cancels its run's context as soon as a stage ending in
// suffix starts, and counts run starts and ends.
type cancelingSink struct {
	cancel context.CancelFunc
	suffix string

	mu           sync.Mutex
	starts, ends int
}

func (s *cancelingSink) Enabled(obs.Kind) bool { return true }

func (s *cancelingSink) Observe(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindRunStart:
		s.starts++
		if strings.HasSuffix(e.Stage, s.suffix) {
			s.cancel()
		}
	case obs.KindRunEnd:
		s.ends++
	}
}

// TestSinkStagesPairedOnCancel cancels each run (a streamed sweep, a
// per-size sweep and a single-design evaluation) the moment its stage
// opens: the run must fail with the cancellation and still close every
// stage it opened, so a consumer's per-stage state is never left dangling.
func TestSinkStagesPairedOnCancel(t *testing.T) {
	refs, mix := mixTestRefs(t, 60000)
	design := cache.SystemConfig{
		Unified:       cache.Config{Size: 2048, LineSize: 16},
		PurgeInterval: 2500,
	}
	sweep := func(repl cache.Replacement) func(ctx context.Context, sink obs.Sink) error {
		spec := SweepSpec{Sizes: []int{256, 1024, 4096}, LineSize: 16, Quantum: mix.Quantum, Repl: repl}
		return func(ctx context.Context, sink obs.Sink) error {
			_, err := RunSweep(ctx, spec, trace.NewSliceReader(refs), sink, "test", int64(len(refs)))
			return err
		}
	}
	for _, tc := range []struct {
		name, suffix string
		run          func(ctx context.Context, sink obs.Sink) error
	}{
		{"streamed-sweep", "test", sweep(cache.LRU)},
		{"persize-sweep", "test:256", sweep(cache.ARC)},
		{"evaluate", "simulate:w", func(ctx context.Context, sink obs.Sink) error {
			_, err := EvaluateRefsContext(obs.WithSink(ctx, sink), design, "w", refs)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelingSink{cancel: cancel, suffix: tc.suffix}
			if err := tc.run(ctx, sink); !errors.Is(err, context.Canceled) {
				t.Fatalf("run error = %v, want context.Canceled", err)
			}
			if sink.starts == 0 || sink.starts != sink.ends {
				t.Fatalf("%d run starts but %d run ends", sink.starts, sink.ends)
			}
		})
	}
}
