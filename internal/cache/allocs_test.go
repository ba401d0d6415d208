package cache_test

import (
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// runner is an engine with a Run loop over a reader.
type runner interface {
	Run(rd trace.Reader, max int) (int, error)
}

// runAllocs builds an engine, hands it to setup (nil for none), and
// returns the allocations of one warmed Run over refs.
func runAllocs[E runner](t *testing.T, build func() (E, error), setup func(E), refs []trace.Ref) float64 {
	t.Helper()
	e, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(e)
	}
	return testing.AllocsPerRun(1, func() {
		if _, err := e.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSinkAllocsPerRun pins the allocation profile of the engines' own Run
// loops: a warmed System or Hierarchy Run allocates the same at N and 4N
// references — nothing grows per reference. The engines take no sink (core
// emits every run event, and core's test of the same name pins a run's
// stream with and without one), so what stays here is the loop itself and
// the 3C tracker: a System with EnableMissCauses allocates per new line,
// and those allocations show at 4N, which keeps the pin honest.
func TestSinkAllocsPerRun(t *testing.T) {
	const n = 70000
	short, long := simcheck.Stream(7, n), simcheck.Stream(7, 4*n)
	const purge = 20000
	l1 := cache.SystemConfig{Unified: cache.Config{Size: 4096, LineSize: 16}, PurgeInterval: purge}
	newSystem := func() (*cache.System, error) { return cache.NewSystem(l1) }
	newHierarchy := func() (*cache.Hierarchy, error) {
		return cache.NewHierarchy(cache.HierarchyConfig{L1: l1, L2: cache.Config{Size: 16384, LineSize: 16}})
	}
	flat := func(t *testing.T, atN, at4N float64) {
		t.Logf("allocs per Run: %v/%v (N/4N)", atN, at4N)
		if atN != at4N {
			t.Errorf("allocations grow with the stream: %v→%v", atN, at4N)
		}
	}
	t.Run("System", func(t *testing.T) {
		flat(t, runAllocs(t, newSystem, nil, short), runAllocs(t, newSystem, nil, long))
	})
	t.Run("Hierarchy", func(t *testing.T) {
		flat(t, runAllocs(t, newHierarchy, nil, short), runAllocs(t, newHierarchy, nil, long))
	})
	causes := (*cache.System).EnableMissCauses
	if a, b := runAllocs(t, newSystem, causes, short), runAllocs(t, newSystem, causes, long); b <= a {
		t.Errorf("3C tracker: %v allocs per Run at %d refs, %v at %d; the pin cannot see it", a, n, b, 4*n)
	}
}
