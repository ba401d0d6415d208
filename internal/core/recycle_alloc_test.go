//go:build !race

package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// TestSweepRecyclesCacheArrays pins the recycler's saving: once a sweep has
// run, a second identical sweep draws every frame and tag array from the
// arrays the first released, so it allocates only per-size headers and
// results — kilobytes, where the arrays themselves are over a megabyte per
// per-size pass (every L1 plus a 256 KB L2) and hundreds of kilobytes per
// fan-out pass. The race detector makes sync.Pool drop Puts at random, so
// this pin builds only without it. It runs on one P: sync.Pool keeps one
// array per P where no other P can take it, so with more Ps a goroutine
// that migrates between the calls finds some classes empty, and the pin
// would measure scheduler placement rather than recycling.
func TestSweepRecyclesCacheArrays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200000
	refs, mix := mixTestRefs(t, n)
	var sizes []int
	for size := 32; size <= 64<<10; size *= 2 {
		sizes = append(sizes, size)
	}
	for _, spec := range []SweepSpec{
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Victim: 4, L2: &L2Spec{Size: 256 << 10}},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Split: true, Fetch: cache.PrefetchAlways},
	} {
		var got [2]uint64
		for i := range got {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", n); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got[i] = after.TotalAlloc - before.TotalAlloc
		}
		t.Logf("%s sweep: first call %d bytes, second %d", SelectEngine(spec).Name, got[0], got[1])
		if got[1] >= 64<<10 {
			t.Errorf("%s sweep: second call allocated %d bytes, want < %d (cache arrays recycled)",
				SelectEngine(spec).Name, got[1], 64<<10)
		}
	}
}

// causeSink is Enabled for every kind, so installing it switches on 3C
// attribution.
type causeSink struct{}

func (causeSink) Observe(obs.Event)     {}
func (causeSink) Enabled(obs.Kind) bool { return true }

// TestSinkAllocsPerRun pins the allocation profile of every run's stream
// (every engine's simulator arrays come from the recycler, hence the build
// tag): the one-pass sweeps through RunSweep, a
// System through EvaluateRefsContext and a Hierarchy through the per-size
// engine. A warmed run allocates the same over N and 4N references —
// nothing grows per reference or per progress event — and obs.Discard
// allocates exactly as much as no sink, so it leaves the 3C tracker off.
// Each run builds a fresh simulator, so the streams must build the same
// footprint: the 4N stream is the N stream four times over, with one purge
// per copy, and addresses stay inside 4 KB, so every copy grows the
// simulators' arrays to the same size, and a warmed run draws them all
// from the recycler. A measurement is the least of three runs, each after a
// collection: a cost per reference shows in every run, a runtime
// allocation that happens to land in one run does not. A sink Enabled for
// obs.KindMissCauses does switch the tracker on: this design is its own
// shadow, and the seen set grows only with the distinct fetch units, so
// that run is flat at N and 4N too. The control keeps the pin honest: a 4N
// stream whose four copies lie in four disjoint regions, with each 16-byte
// unit moved to a 64-unit page of its own, touches four times the units on
// over a thousand pages, and must allocate more. Copies 1 MB apart alone
// would not do: the seen set keeps a page of units per slot, and its first
// table holds the copies' 16 pages.
func TestSinkAllocsPerRun(t *testing.T) {
	n := obs.ProgressInterval + 5000
	short := simcheck.Stream(7, n)
	for i := range short {
		short[i].Addr &= 1<<12 - 1
	}
	long := slices.Concat(short, short, short, short)
	sweep := func(spec SweepSpec) func(obs.Sink, []trace.Ref) error {
		return func(sink obs.Sink, refs []trace.Ref) error {
			_, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), sink, "allocs", int64(len(refs)))
			return err
		}
	}
	l1 := cache.SystemConfig{Unified: cache.Config{Size: 4096, LineSize: 16}, PurgeInterval: n}
	evaluate := func(sink obs.Sink, refs []trace.Ref) error {
		_, err := EvaluateRefsContext(obs.WithSink(context.Background(), sink), l1, "allocs", refs)
		return err
	}
	runs := map[string]func(obs.Sink, []trace.Ref) error{
		"System":    evaluate,
		"Hierarchy": sweep(SweepSpec{Sizes: []int{4096}, LineSize: 16, Quantum: n, L2: &L2Spec{Size: 16384}}),
	}
	for name, spec := range sinkSpecs(n) {
		runs[name] = sweep(spec)
	}
	allocs := func(run func(obs.Sink, []trace.Ref) error, sink obs.Sink, refs []trace.Ref) float64 {
		least := math.Inf(1)
		for range 3 {
			runtime.GC()
			least = min(least, testing.AllocsPerRun(1, func() {
				if err := run(sink, refs); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			bareN, bare4N := allocs(run, nil, short), allocs(run, nil, long)
			discN, disc4N := allocs(run, obs.Discard, short), allocs(run, obs.Discard, long)
			t.Logf("allocs per run: nil %v/%v, Discard %v/%v (N/4N)", bareN, bare4N, discN, disc4N)
			if bareN != bare4N || discN != disc4N {
				t.Errorf("allocations grow with the stream: nil %v→%v, Discard %v→%v", bareN, bare4N, discN, disc4N)
			}
			if discN != bareN {
				t.Errorf("Discard allocates %v per run, no sink %v", discN, bareN)
			}
		})
	}
	t.Run("MissCauses", func(t *testing.T) {
		spread := make([]trace.Ref, 0, 4*n)
		for i := range uint64(4) {
			for _, r := range short {
				r.Addr = i<<20 | r.Addr>>4<<10 | r.Addr&15
				spread = append(spread, r)
			}
		}
		atN, at4N := allocs(evaluate, causeSink{}, short), allocs(evaluate, causeSink{}, long)
		spread4N := allocs(evaluate, causeSink{}, spread)
		t.Logf("allocs per run: %v/%v (N/4N), %v over 4x the units", atN, at4N, spread4N)
		if atN != at4N {
			t.Errorf("3C tracker: allocations grow with the stream: %v→%v", atN, at4N)
		}
		if spread4N <= atN {
			t.Errorf("3C tracker: %v allocs per run at %d refs, %v at %d over 4x the units; the pin cannot see growth", atN, n, spread4N, 4*n)
		}
	})
}

// TestEvaluateAllocBytes pins the bytes a warmed, generator-fed
// EvaluateContext allocates (16 KB unified, FGO1, 100k references). Feed
// reads a generator through a 64 KB chunk buffer where the simulator's own
// Run loop once read it with none, so the buffer must come from the
// recycler. The bound is the 114912 bytes the Run-loop evaluation
// allocated (go1.24, linux/amd64), which built its cache arrays fresh
// every call; releasing the simulator at Close brings the run to about
// 33 KB. Like TestSweepRecyclesCacheArrays, it runs on one P.
func TestEvaluateAllocBytes(t *testing.T) {
	least := evaluateAllocBytes(t, context.Background(), evaluateDesign)
	t.Logf("warmed generator-fed evaluate: %d bytes", least)
	const bound = 114912
	if least > bound {
		t.Errorf("warmed generator-fed evaluate allocated %d bytes, want <= %d", least, bound)
	}
}

// TestEvaluateCausesAllocBytes is TestEvaluateAllocBytes under a sink
// Enabled for obs.KindMissCauses, as every cold evaluate in the service
// runs. This design, fully associative LRU, is its own 3C shadow, so the
// tracker allocates only its seen set: FGO1's 2,586 distinct 16-byte units
// lie on few enough 32-unit pages that the set's tables take a few
// kilobytes. The evaluate allocates 35,504 bytes (go1.24, linux/amd64);
// with a shadow cache and a Go map for the seen set it allocated 263,992,
// and with a map for the shadow too 388,888. The bound is the go1.24
// figure plus about 10%.
func TestEvaluateCausesAllocBytes(t *testing.T) {
	least := evaluateAllocBytes(t, obs.WithSink(context.Background(), causeSink{}), evaluateDesign)
	t.Logf("warmed generator-fed evaluate with 3C attribution: %d bytes", least)
	const bound = 39000
	if least > bound {
		t.Errorf("warmed generator-fed evaluate with 3C attribution allocated %d bytes, want <= %d", least, bound)
	}
}

// TestEvaluateCausesLargeDesignAllocBytes is TestEvaluateCausesAllocBytes
// for a design cut into many fetch units: 16 MiB unified, the largest
// cache the service accepts, with 64-byte lines and 1-byte sub-blocks,
// 16M units. A sectored cache keeps its shadow, which grows with the units
// the run references, and the seen set grows with them too: the evaluate
// allocates 2,705,392 bytes (go1.24, linux/amd64). With a Go map for the
// seen set it allocated 5,021,928; a shadow built at full capacity, 16M
// frames and 32M tag slots, would allocate about 1.3 GB. The bound is the
// go1.24 figure plus about 20%.
func TestEvaluateCausesLargeDesignAllocBytes(t *testing.T) {
	design := cache.SystemConfig{Unified: cache.Config{Size: 16 << 20, LineSize: 64, SubBlock: 1}}
	least := evaluateAllocBytes(t, obs.WithSink(context.Background(), causeSink{}), design)
	t.Logf("warmed generator-fed evaluate of %v with 3C attribution: %d bytes", design.Unified, least)
	const bound = 3250000
	if least > bound {
		t.Errorf("warmed generator-fed evaluate of %v with 3C attribution allocated %d bytes, want <= %d", design.Unified, least, bound)
	}
}

// evaluateDesign is the design TestEvaluateAllocBytes evaluates: 16 KB
// unified with 16-byte lines.
var evaluateDesign = cache.SystemConfig{Unified: cache.Config{Size: 16384, LineSize: 16}}

// evaluateAllocBytes returns the least bytes a warmed, generator-fed
// EvaluateContext of design over FGO1 (100k references, purged at FGO1's
// quantum) allocates under ctx, on one P.
func evaluateAllocBytes(t *testing.T, ctx context.Context, design cache.SystemConfig) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := workload.ByName("FGO1")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := workload.ArchByID(spec.Arch)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: spec.Name, Specs: []workload.Spec{spec}, Quantum: arch.PurgeInterval}
	design.PurgeInterval = mix.Quantum
	least := uint64(math.MaxUint64)
	for i := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := EvaluateContext(ctx, design, mix, 100000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 { // the first call warms the recycler
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestSweepAllocBytes pins the bytes a warmed demand-LRU sweep allocates:
// one RunSweep over BenchmarkMultiSystem's input (FGO1, 100k references,
// the twelve sizes 32 B-64 KB, quantum 20000), which selects the one-pass
// stack engine. The engine's line index is an open-addressed table of
// 4-byte slots and its stack nodes are 24 bytes, both drawn from the
// recycler and handed back at Close: the sweep allocates 12752 bytes
// (go1.24, linux/amd64), and the bound is that plus 10%. With both arrays
// built fresh every pass it allocated 123048, and with a Go map for the
// index and 32-byte nodes 208000. The table's growth does not depend on
// the runtime's map layout, so the figure does not move between Go
// versions. Like TestSweepRecyclesCacheArrays, it runs on one P.
func TestSweepAllocBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := workload.ByName("FGO1")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(rd, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for size := 32; size <= 64<<10; size *= 2 {
		sizes = append(sizes, size)
	}
	sweep := SweepSpec{Sizes: sizes, LineSize: 16, Quantum: 20000}
	if name := SelectEngine(sweep).Name; name != "multisystem" {
		t.Fatalf("sweep selects %s, want multisystem", name)
	}
	least := uint64(math.MaxUint64)
	for i := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunSweep(context.Background(), sweep, trace.NewSliceReader(refs), obs.Discard, "allocs", int64(len(refs))); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 { // the first call warms the recycler
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("warmed demand-LRU sweep: %d bytes", least)
	const bound = 14027
	if least > bound {
		t.Errorf("warmed demand-LRU sweep allocated %d bytes, want <= %d", least, bound)
	}
}
