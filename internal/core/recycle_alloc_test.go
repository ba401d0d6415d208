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

// TestSinkAllocsPerRun pins the one-pass engines' allocation profile
// through RunSweep (the fan-out engine's arrays come from the recycler,
// hence the build tag): a warmed sweep allocates the same over N and 4N
// references — nothing grows per reference or per progress event — and
// obs.Discard allocates exactly as much as no sink. Each sweep builds a
// fresh engine, so the streams must build the same footprint: the 4N
// stream is the N stream four times over, with one purge per copy, and
// addresses stay inside 4 KB, where the stack engine's line index never
// grows (a growing map allocates a seed-dependent number of times). A
// measurement is the least of three sweeps, each after a collection: a
// cost per reference shows in every sweep, a runtime allocation that
// happens to land in one sweep does not.
func TestSinkAllocsPerRun(t *testing.T) {
	n := obs.ProgressInterval + 5000
	short := simcheck.Stream(7, n)
	for i := range short {
		short[i].Addr &= 1<<12 - 1
	}
	long := slices.Concat(short, short, short, short)
	for name, spec := range sinkSpecs(n) {
		t.Run(name, func(t *testing.T) {
			allocs := func(sink obs.Sink, refs []trace.Ref) float64 {
				least := math.Inf(1)
				for range 3 {
					runtime.GC()
					least = min(least, testing.AllocsPerRun(1, func() {
						if _, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), sink, "allocs", int64(len(refs))); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			bareN, bare4N := allocs(nil, short), allocs(nil, long)
			discN, disc4N := allocs(obs.Discard, short), allocs(obs.Discard, long)
			t.Logf("allocs per sweep: nil %v/%v, Discard %v/%v (N/4N)", bareN, bare4N, discN, disc4N)
			if bareN != bare4N || discN != disc4N {
				t.Errorf("allocations grow with the stream: nil %v→%v, Discard %v→%v", bareN, bare4N, discN, disc4N)
			}
			if discN != bareN {
				t.Errorf("Discard allocates %v per sweep, no sink %v", discN, bareN)
			}
		})
	}
}
