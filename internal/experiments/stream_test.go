package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
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

// matchConfigs are the sweep configurations the job loop is pinned on: the
// LRU sweep, whose jobs stream, and four whose mixes materialize: a
// non-LRU policy, a victim buffer, an L2 and a sampled budget. Under
// -short the materializing ones run at a quarter of the length (members
// of 1500 refs, a limit of 1000), so the grid fits the race detector's
// budget; the LRU one always runs at full length.
var matchConfigs = []struct {
	name    string
	o       Options
	shorten bool
}{
	{"lru", Options{}, false},
	{"arc", Options{Repl: cache.ARC}, true},
	{"victim", Options{Victim: 4}, true},
	{"l2", Options{L2: &core.L2Spec{Size: 32 << 10}}, true},
	{"sampled", Options{Sampled: &core.SampledOptions{ErrorBudget: 0.2}}, true},
}

// TestStreamedMatchesMaterialized pins SweepMixesContext's job loop to
// SweepRefsContext over the mixes' collected streams. For every
// configuration the two must give identical cells, OnPass results and
// Sampled lists (in mix and pass order) at every worker count, so one, two
// and four pass groups all run when the jobs stream, and one to four
// pass jobs share each recycled buffer when they materialize. Every stage
// must open and close once per run on the sink, the same stages as the
// materialized run's.
func TestStreamedMatchesMaterialized(t *testing.T) {
	for _, n := range []int{1, 2, 6} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, limit := range []int{0, 4000} {
				t.Run(fmt.Sprintf("mixes=%d/workers=%d/limit=%d", n, workers, limit), func(t *testing.T) {
					for _, cfg := range matchConfigs {
						t.Run(cfg.name, func(t *testing.T) {
							refs, limit := 6000, limit
							if cfg.shorten && testing.Short() {
								refs, limit = refs/4, limit/4
							}
							o := cfg.o
							o.Sizes, o.RefLimit, o.Workers = []int{64, 512, 4096}, limit, workers
							checkJobLoop(t, o, shortMixes(n, refs))
						})
					}
				})
			}
		}
	}
}

// checkJobLoop runs one sweep through SweepMixes and through
// SweepRefsContext over the collected streams, and compares the two.
func checkJobLoop(t *testing.T, o Options, mixes []workload.Mix) {
	t.Helper()
	run := func(materialize bool) (*SweepResult, *stageSink, *passRecorder) {
		sink, rec := newStageSink(), &passRecorder{passes: map[passKey][]SimOut{}}
		o := o
		o.Sink, o.OnPass = sink, rec.on
		var res *SweepResult
		var err error
		if materialize {
			streams := make([][]trace.Ref, len(mixes))
			for i, m := range mixes {
				if streams[i], err = o.collectMix(m); err != nil {
					t.Fatal(err)
				}
			}
			res, err = SweepRefsContext(context.Background(), o, mixes, streams)
		} else {
			res, err = SweepMixes(o, mixes)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, sink, rec
	}
	want, wantSink, wantPasses := run(true)
	got, sink, gotPasses := run(false)
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Error("job-loop cells differ from materialized cells")
	}
	if !reflect.DeepEqual(got.Sampled, want.Sampled) {
		t.Errorf("Sampled %+v, want %+v", got.Sampled, want.Sampled)
	}
	wantSampled := 0
	if o.Sampled != nil {
		wantSampled = 4 * len(mixes)
	}
	if len(got.Sampled) != wantSampled {
		t.Errorf("%d sampled passes recorded, want %d", len(got.Sampled), wantSampled)
	}
	if len(gotPasses.passes) != 4*len(mixes) || gotPasses.dups != 0 {
		t.Errorf("OnPass: %d passes (%d repeated), want %d once each", len(gotPasses.passes), gotPasses.dups, 4*len(mixes))
	}
	if !reflect.DeepEqual(gotPasses.passes, wantPasses.passes) {
		t.Error("job-loop OnPass results differ from materialized ones")
	}
	if len(sink.starts) < 4*len(mixes) || !reflect.DeepEqual(sink.starts, sink.ends) {
		t.Errorf("unpaired stages: starts %v ends %v", sink.starts, sink.ends)
	}
	if !reflect.DeepEqual(sink.starts, wantSink.starts) {
		t.Errorf("stages %v, materialized run %v", sink.starts, wantSink.starts)
	}
	for stage, c := range sink.starts {
		if c != 1 {
			t.Errorf("stage %s opened %d times, want once", stage, c)
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

// TestMaterializedSweepCancelSettles cancels a sweep over a materialized
// stream (SweepRefsContext) at its first progress event with four
// workers, so forEachCtx runs the four grid passes on three goroutines of
// its own plus the caller's. The sweep must fail with the cancellation,
// close every stage it opened, and leave no goroutine behind.
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
	o := Options{Sizes: []int{1024, 16384}, Workers: 4, Sink: sink}
	if _, err := SweepRefsContext(ctx, o, []workload.Mix{mix}, [][]trace.Ref{refs}); !errors.Is(err, context.Canceled) {
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

// TestJobStreamRule pins when a mix's jobs stream: exactly when the
// registry picks an engine with an incremental form for every pass. A
// sampled pass, a victim buffer, an L2 or a non-LRU policy makes the mix
// materialize; a zero sampled budget runs exact engines and streams.
func TestJobStreamRule(t *testing.T) {
	mix := shortMixes(1, 1000)[0]
	for _, tc := range []struct {
		name string
		o    Options
		want bool
	}{
		{"default", Options{}, true},
		{"zero budget", Options{Sampled: &core.SampledOptions{}}, true},
		{"sampled", Options{Sampled: &core.SampledOptions{ErrorBudget: 0.05}}, false},
		{"victim", Options{Victim: 4}, false},
		{"L2", Options{L2: &core.L2Spec{Size: 1 << 16}}, false},
		{"non-LRU", Options{Repl: cache.FIFO}, false},
	} {
		if got := tc.o.withDefaults().canStream(mix); got != tc.want {
			t.Errorf("%s: canStream = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMaterializedJobSpans checks the spans of mixes that materialize:
// each mix records one materialize:<mix> span, carrying the stream's
// length, however many workers share the stream, and after it one span per
// pass, with no span around a job, so span time still tiles the sweep.
func TestMaterializedJobSpans(t *testing.T) {
	mixes := shortMixes(2, 3000)
	want := map[string]int64{}
	for _, m := range mixes {
		want["materialize:"+m.Name] = int64(m.TotalRefs())
		for _, p := range gridPasses {
			want[p.stage(m)] = int64(m.TotalRefs())
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		ctx, tr := obs.NewTrace(context.Background())
		if _, err := SweepMixesContext(ctx, Options{Sizes: []int{256}, Workers: workers, Repl: cache.ARC}, mixes); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		filled := map[string]bool{}
		for _, s := range tr.Summary() {
			if _, dup := got[s.Name]; dup {
				t.Errorf("workers=%d: span %s recorded twice", workers, s.Name)
			}
			got[s.Name] = s.Refs
			if mix, ok := strings.CutPrefix(s.Name, "materialize:"); ok {
				filled[mix] = true
			} else if mix := strings.Split(s.Name, ":")[1]; !filled[mix] {
				t.Errorf("workers=%d: span %s starts before materialize:%s", workers, s.Name, mix)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: spans (name: refs) %v, want %v", workers, got, want)
		}
	}
}

// TestRecycledSweepsConcurrentMixes runs per-size sweeps through
// SweepMixesContext from four goroutines at once, each in its own order,
// so their materialized mixes draw and return reference buffers (and
// cache arrays) of the same classes concurrently. Every result must equal the
// sweep's serial run: a buffer handed to two jobs at once shows up as a
// diverged cell, and under -race as a data race.
func TestRecycledSweepsConcurrentMixes(t *testing.T) {
	mixes := shortMixes(3, 4000)
	sizes := []int{256, 4096}
	sweeps := []Options{
		{Sizes: sizes, Workers: 2, Repl: cache.ARC},
		{Sizes: sizes, Workers: 2, Victim: 4},
		{Sizes: sizes, Workers: 4, L2: &core.L2Spec{Size: 32 << 10}, RefLimit: 3000},
		{Sizes: sizes, Workers: 1, Sampled: &core.SampledOptions{ErrorBudget: 0.2}},
	}
	want := make([]*SweepResult, len(sweeps))
	for i, o := range sweeps {
		res, err := SweepMixes(o, mixes)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sweeps {
				i := (k + g) % len(sweeps)
				got, err := SweepMixesContext(context.Background(), sweeps[i], mixes)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Cells, want[i].Cells) || !reflect.DeepEqual(got.Sampled, want[i].Sampled) {
					t.Errorf("goroutine %d, sweep %d: concurrent run diverged from serial", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
