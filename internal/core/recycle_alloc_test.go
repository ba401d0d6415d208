//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"cacheeval/internal/cache"
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
	refs, mix := sampledTestRefs(t, n)
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
