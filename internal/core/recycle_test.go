package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/trace"
)

// TestRecycledSweepsConcurrent runs per-size, hierarchy, fan-out and stack
// sweeps from four goroutines at once, each in its own order, so the engines
// release and draw arrays of the same classes concurrently through the
// shared recycler. Every result must equal the spec's serial run: an array
// handed to two simulators at once, or returned with stale state, shows up
// as a diverged statistic (and, under -race, as a data race).
func TestRecycledSweepsConcurrent(t *testing.T) {
	const n = 40000
	refs, mix := mixTestRefs(t, n)
	sizes := []int{256, 1024, 4096}
	specs := []SweepSpec{
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Repl: cache.ARC},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Split: true, Victim: 4, Repl: cache.SegmentedLRU},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Victim: 2, L2: &L2Spec{Size: 32 << 10}},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Split: true, L2: &L2Spec{Size: 16 << 10, Assoc: 4}},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Fetch: cache.PrefetchAlways},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Split: true, Fetch: cache.PrefetchAlways},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum},
		{Sizes: sizes, LineSize: 16, Quantum: mix.Quantum, Split: true},
	}
	run := func(spec SweepSpec) (SweepOut, error) {
		return RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", n)
	}
	want := make([]SweepOut, len(specs))
	for i, spec := range specs {
		out, err := run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range specs {
				i := (k + g) % len(specs)
				got, err := run(specs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s spec %d: concurrent run diverged from serial:\n got %+v\nwant %+v",
						g, SelectEngine(specs[i]).Name, i, got.Results, want[i].Results)
				}
			}
		}(g)
	}
	wg.Wait()
}
