package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// stageSink records, per stage, how many runs started and ended and the
// largest progress count seen; with cancel set it cancels on the first
// progress event.
type stageSink struct {
	cancel context.CancelFunc

	mu       sync.Mutex
	starts   map[string]int
	ends     map[string]int
	progress map[string]int64
	canceled time.Time
}

func newStageSink() *stageSink {
	return &stageSink{starts: map[string]int{}, ends: map[string]int{}, progress: map[string]int64{}}
}

func (s *stageSink) Enabled(obs.Kind) bool { return true }

func (s *stageSink) Observe(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindRunStart:
		s.starts[e.Stage]++
	case obs.KindRunEnd:
		s.ends[e.Stage]++
	case obs.KindProgress:
		s.progress[e.Stage] = max(s.progress[e.Stage], e.Refs)
		if s.cancel != nil && s.canceled.IsZero() {
			s.canceled = time.Now()
			s.cancel()
		}
	}
}

// passKey identifies one OnPass delivery.
type passKey struct {
	mix             string
	split, prefetch bool
}

// passRecorder collects OnPass deliveries, failing on a repeated pass.
type passRecorder struct {
	mu     sync.Mutex
	passes map[passKey][]SimOut
	dups   int
}

func (r *passRecorder) on(p PassResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := passKey{p.Mix, p.Split, p.Prefetch}
	if _, ok := r.passes[k]; ok {
		r.dups++
	}
	r.passes[k] = p.Results
}

// shortMixes returns the first n standard mixes with every member cut to
// refs references, so an unlimited sweep stays small.
func shortMixes(n, refs int) []workload.Mix {
	mixes := workload.StandardMixes()[:n]
	for i := range mixes {
		specs := append([]workload.Spec(nil), mixes[i].Specs...)
		for j := range specs {
			specs[j].Refs = refs
		}
		mixes[i].Specs = specs
	}
	return mixes
}

// TestStreamedMatchesMaterialized pins the streamed sweep to the
// materialized one: the same sweep, once fed from the generator (streamed:
// one job per mix and pass group) and once through a StreamSource (which
// forces materialization), must give identical cells and OnPass results
// at every worker count, so one, two and four pass groups all run. Every
// pass stage must open and close exactly once on the sink.
func TestStreamedMatchesMaterialized(t *testing.T) {
	for _, n := range []int{1, 2, 6} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, limit := range []int{0, 4000} {
				t.Run(fmt.Sprintf("mixes=%d/workers=%d/limit=%d", n, workers, limit), func(t *testing.T) {
					mixes := shortMixes(n, 6000)
					run := func(materialize bool) (*SweepResult, *stageSink, *passRecorder, int) {
						sink, rec := newStageSink(), &passRecorder{passes: map[passKey][]SimOut{}}
						o := Options{Sizes: []int{64, 512, 4096}, RefLimit: limit, Workers: workers, Sink: sink, OnPass: rec.on}
						var sourced atomic.Int32
						if materialize {
							o.StreamSource = func(ctx context.Context, m workload.Mix) ([]trace.Ref, error) {
								sourced.Add(1)
								return Options{RefLimit: limit}.CollectMixContext(ctx, m)
							}
						}
						res, err := SweepMixes(o, mixes)
						if err != nil {
							t.Fatal(err)
						}
						return res, sink, rec, int(sourced.Load())
					}
					want, _, wantPasses, sourced := run(true)
					if sourced != n {
						t.Fatalf("StreamSource called %d times, want %d", sourced, n)
					}
					got, sink, gotPasses, _ := run(false)
					if !reflect.DeepEqual(got.Cells, want.Cells) {
						t.Error("streamed cells differ from materialized cells")
					}
					if len(got.Sampled) != 0 {
						t.Errorf("streamed sweep recorded %d sampled passes, want none", len(got.Sampled))
					}
					if len(gotPasses.passes) != 4*n || gotPasses.dups != 0 {
						t.Errorf("OnPass: %d passes (%d repeated), want %d once each", len(gotPasses.passes), gotPasses.dups, 4*n)
					}
					if !reflect.DeepEqual(gotPasses.passes, wantPasses.passes) {
						t.Error("streamed OnPass results differ from materialized ones")
					}
					for _, m := range mixes {
						for _, p := range gridPasses {
							st := p.stage(m)
							if sink.starts[st] != 1 || sink.ends[st] != 1 {
								t.Errorf("stage %s: %d run starts, %d run ends, want 1 each", st, sink.starts[st], sink.ends[st])
							}
						}
					}
					if len(sink.starts) != 4*n || !reflect.DeepEqual(sink.starts, sink.ends) {
						t.Errorf("unpaired stages: starts %v ends %v", sink.starts, sink.ends)
					}
				})
			}
		}
	}
}

// TestStreamedSpans checks the streamed sweep's spans: one per job, named
// for the mix, its organization when the passes are paired, and its fetch
// policy when each pass runs alone, each carrying the stream's length.
func TestStreamedSpans(t *testing.T) {
	mix := shortMixes(1, 3000)[0]
	for _, tc := range []struct {
		workers int
		want    []string
	}{
		{1, []string{"sweep:" + mix.Name}},
		{2, []string{"sweep:" + mix.Name + ":split", "sweep:" + mix.Name + ":unified"}},
		{4, []string{
			"sweep:" + mix.Name + ":demand:split", "sweep:" + mix.Name + ":demand:unified",
			"sweep:" + mix.Name + ":prefetch:split", "sweep:" + mix.Name + ":prefetch:unified",
		}},
	} {
		ctx, tr := obs.NewTrace(context.Background())
		if _, err := SweepMixesContext(ctx, Options{Sizes: []int{256}, Workers: tc.workers}, []workload.Mix{mix}); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range tr.Summary() {
			got = append(got, s.Name)
			if s.Refs != int64(mix.TotalRefs()) {
				t.Errorf("workers=%d: span %s carries %d refs, want %d", tc.workers, s.Name, s.Refs, mix.TotalRefs())
			}
		}
		if !sameSet(got, tc.want) {
			t.Errorf("workers=%d: spans %v, want %v", tc.workers, got, tc.want)
		}
	}
}

func sameSet(a, b []string) bool {
	count := map[string]int{}
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestStreamedSweepCancel cancels a streamed sweep in the middle of a long
// mix (at its first progress event): the sweep must fail with the
// cancellation promptly, without reading further into the stream, close
// every stage it opened, and leave no goroutine behind.
func TestStreamedSweepCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := newStageSink()
	sink.cancel = cancel
	mix := shortMixes(3, 0)[2] // VCCOM
	mix.Specs[0].Refs = 20_000_000
	_, err := SweepMixesContext(ctx, Options{Sizes: []int{1024, 16384}, Workers: 2, Sink: sink}, []workload.Mix{mix})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if since := time.Since(sink.canceled); since > 5*time.Second {
		t.Errorf("sweep returned %v after cancellation", since)
	}
	for stage, refs := range sink.progress {
		if refs > obs.ProgressInterval {
			t.Errorf("stage %s fed %d refs, past the cancellation at %d", stage, refs, obs.ProgressInterval)
		}
	}
	if len(sink.starts) == 0 || !reflect.DeepEqual(sink.starts, sink.ends) {
		t.Errorf("unpaired stages: starts %v ends %v", sink.starts, sink.ends)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the sweep, %d before", n, base)
	}
}

// TestMaterializedSweepCancelSettles cancels a StreamSource sweep at its
// first progress event with four workers, so forEachCtx runs the four grid
// passes on three goroutines of its own plus the caller's. The sweep must
// fail with the cancellation, close every stage it opened, and leave no
// goroutine behind.
func TestMaterializedSweepCancelSettles(t *testing.T) {
	mix := shortMixes(3, 300_000)[2] // VCCOM
	refs, err := Options{}.CollectMixContext(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := newStageSink()
	sink.cancel = cancel
	o := Options{
		Sizes: []int{1024, 16384}, Workers: 4, Sink: sink,
		StreamSource: func(context.Context, workload.Mix) ([]trace.Ref, error) { return refs, nil },
	}
	if _, err := SweepMixesContext(ctx, o, []workload.Mix{mix}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.starts) == 0 || !reflect.DeepEqual(sink.starts, sink.ends) {
		t.Errorf("unpaired stages: starts %v ends %v", sink.starts, sink.ends)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the sweep, %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestStreamedSweepBoundedAlloc locks the streamed sweep's memory claim: a
// one-mix sweep allocates the same whatever its stream's length, because
// no stream is held. Tenfold more references (50k → 500k) may add at most
// 2 bytes per extra reference — the generator's and engines' growing
// working sets — against the 16 B/ref a materialized stream costs.
func TestStreamedSweepBoundedAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1.65M references")
	}
	mix := shortMixes(3, 0)[2] // VCCOM
	mix.Specs[0].Refs = 500_000
	alloc := func(limit int) uint64 {
		least := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := SweepMixes(Options{RefLimit: limit, Workers: 1}, []workload.Mix{mix}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	short, long := alloc(50_000), alloc(500_000)
	perRef := (float64(long) - float64(short)) / 450_000
	t.Logf("allocated %d B at 50k refs, %d B at 500k: %.3f B per extra ref", short, long, perRef)
	if perRef > 2 {
		t.Errorf("allocation grows %.2f B per reference, want a stream-independent footprint (<= 2)", perRef)
	}
}

// TestStreamedPathSelection pins when a sweep streams: only generator-fed,
// exact sweeps whose every pass selects a one-pass engine.
func TestStreamedPathSelection(t *testing.T) {
	mixes := shortMixes(1, 1000)
	src := func(context.Context, workload.Mix) ([]trace.Ref, error) { return nil, nil }
	for _, tc := range []struct {
		name string
		o    Options
		want bool
	}{
		{"default", Options{}, true},
		{"four workers", Options{Workers: 4}, true},
		{"stream source", Options{StreamSource: src}, false},
		{"sampled", Options{Sampled: &core.SampledOptions{ErrorBudget: 0.05}}, false},
		{"victim", Options{Victim: 4}, false},
		{"L2", Options{L2: &core.L2Spec{Size: 1 << 16}}, false},
		{"non-LRU", Options{Repl: cache.FIFO}, false},
	} {
		if got := tc.o.withDefaults().streamed(mixes); got != tc.want {
			t.Errorf("%s: streamed = %v, want %v", tc.name, got, tc.want)
		}
	}
}
