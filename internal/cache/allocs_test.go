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
// the 3C tracker. A warmed System with EnableMissCauses is flat too: its
// fully associative LRU cache is its own shadow, and its seen set already
// holds every unit of the stream. The control keeps that pin honest: a
// fresh tracker's seen set grows with the distinct fetch units a run
// touches, so a 4N stream over four times the units must allocate more.
// The stream's 4,096 units lie on 128 pages of the seen set, so the four
// copies 1 MB apart need a larger table than one.
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
	t.Run("MissCauses", func(t *testing.T) {
		flat(t, runAllocs(t, newSystem, causes, short), runAllocs(t, newSystem, causes, long))
	})
	fresh := func(refs []trace.Ref) float64 {
		return testing.AllocsPerRun(1, func() {
			s, err := newSystem()
			if err != nil {
				t.Fatal(err)
			}
			s.EnableMissCauses()
			if _, err := s.Run(trace.NewSliceReader(refs), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	spread := make([]trace.Ref, 0, 4*n)
	for i := range uint64(4) {
		for _, r := range short {
			r.Addr += i << 20
			spread = append(spread, r)
		}
	}
	a, b := fresh(short), fresh(spread)
	t.Logf("fresh 3C tracker: allocs per Run %v/%v (N/4N over 4x the units)", a, b)
	if b <= a {
		t.Errorf("fresh 3C tracker: %v allocs per Run at %d refs, %v at %d over 4x the units; the pin cannot see growth", a, n, b, 4*n)
	}
}
