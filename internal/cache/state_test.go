package cache_test

import (
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// newStateSystem builds a purge-free system for state-equality tests.
func newStateSystem(t *testing.T, repl cache.Replacement, split bool) *cache.System {
	t.Helper()
	base := cache.Config{Size: 1024, LineSize: 16, Repl: repl, Seed: 42}
	sc := cache.SystemConfig{}
	if split {
		sc.Split = true
		sc.I, sc.D = base, base
	} else {
		sc.Unified = base
	}
	sys, err := cache.NewSystem(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSystemStateEqualAllPolicies checks the reflexive contract for every
// replacement policy: two systems fed identical references are StateEqual
// at every checkpoint, and diverge the moment their inputs do.
func TestSystemStateEqualAllPolicies(t *testing.T) {
	refs := simcheck.Stream(3, 4000)
	for _, repl := range cache.Replacements() {
		for _, split := range []bool{false, true} {
			a := newStateSystem(t, repl, split)
			b := newStateSystem(t, repl, split)
			for n, r := range refs {
				a.Ref(r)
				b.Ref(r)
				if n%271 == 0 && !a.StateEqual(b) {
					t.Fatalf("%v split=%v n=%d: identical feeds not StateEqual", repl, split, n)
				}
			}
			if !a.StateEqual(b) {
				t.Fatalf("%v split=%v: identical feeds not StateEqual at end", repl, split)
			}
			// A single extra reference to a fresh line must break equality.
			a.Ref(trace.Ref{Addr: 1 << 40, Size: 4, Kind: trace.Read})
			if a.StateEqual(b) {
				t.Fatalf("%v split=%v: StateEqual survived a diverging reference", repl, split)
			}
		}
	}
}

// TestStateEqualSeesDirtyAndOrder checks that equality is sensitive to
// exactly the metadata future behaviour depends on: the dirty bit (decides
// write-back traffic on eviction) and the recency order (decides the
// victim), even when the resident tag sets match.
func TestStateEqualSeesDirtyAndOrder(t *testing.T) {
	// Dirty bit: same line, read in one system, written in the other.
	a := newStateSystem(t, cache.LRU, false)
	b := newStateSystem(t, cache.LRU, false)
	a.Ref(trace.Ref{Addr: 0x100, Size: 4, Kind: trace.Read})
	b.Ref(trace.Ref{Addr: 0x100, Size: 4, Kind: trace.Write})
	if a.StateEqual(b) {
		t.Error("StateEqual ignored the dirty bit")
	}

	// Recency order: same two lines touched in opposite orders.
	a = newStateSystem(t, cache.LRU, false)
	b = newStateSystem(t, cache.LRU, false)
	for _, addr := range []uint64{0x100, 0x200, 0x100} {
		a.Ref(trace.Ref{Addr: addr, Size: 4, Kind: trace.Read})
	}
	for _, addr := range []uint64{0x100, 0x100, 0x200} {
		b.Ref(trace.Ref{Addr: addr, Size: 4, Kind: trace.Read})
	}
	if a.StateEqual(b) {
		t.Error("StateEqual ignored LRU order")
	}
}

// TestStateEqualConvergence checks that an LRU cache forgets its past: a
// cold system and a warm system fed the same churning suffix end
// StateEqual — and from that point identical inputs keep them identical.
func TestStateEqualConvergence(t *testing.T) {
	warm := newStateSystem(t, cache.LRU, false)
	cold := newStateSystem(t, cache.LRU, false)
	// Warm history the cold replica never sees.
	for _, r := range simcheck.Stream(5, 2000) {
		warm.Ref(r)
	}
	if warm.StateEqual(cold) {
		t.Fatal("warm and cold equal before any shared input")
	}
	// Shared suffix that cycles through more lines than the cache holds
	// (64 lines of 16 bytes), evicting every pre-suffix line.
	converged := -1
	for i := 0; i < 4000; i++ {
		r := trace.Ref{Addr: uint64(i%128) * 16, Size: 4, Kind: trace.Read}
		warm.Ref(r)
		cold.Ref(r)
		if converged < 0 && warm.StateEqual(cold) {
			converged = i
		}
	}
	if converged < 0 {
		t.Fatal("warm and cold never converged over a churning suffix")
	}
	if !warm.StateEqual(cold) {
		t.Fatal("states diverged again after converging on identical inputs")
	}
}

// TestFanoutStateEqual is the StateEqual contract for the prefetch engine,
// including its sensitivity to the prefetched bit (which decides future
// prefetch-accuracy accounting).
func TestFanoutStateEqual(t *testing.T) {
	refs := simcheck.Stream(9, 3000)
	mk := func() *cache.FanoutSystem {
		fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
			Sizes: []int{256, 1024}, LineSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := mk(), mk()
	for n, r := range refs {
		a.Ref(r)
		b.Ref(r)
		if n%307 == 0 && !a.StateEqual(b) {
			t.Fatalf("n=%d: identical feeds not StateEqual", n)
		}
	}
	a.Ref(trace.Ref{Addr: 1 << 40, Size: 4, Kind: trace.Read})
	if a.StateEqual(b) {
		t.Fatal("StateEqual survived a diverging reference")
	}
}

// TestSystemExplicitPurgeAllPolicies checks System.Purge against the
// purge schedule for every replacement policy: a purge-free System purged
// by hand at the PurgeInterval cadence must match an auto-purging one bit
// for bit — reference stats, line stats, and end state (Random included:
// identical purge points keep the rng consumption aligned).
func TestSystemExplicitPurgeAllPolicies(t *testing.T) {
	refs := simcheck.Stream(19, 5000)
	const quantum = 300
	for _, repl := range cache.Replacements() {
		base := cache.Config{Size: 512, LineSize: 16, Repl: repl, Seed: 7}
		auto, err := cache.NewSystem(cache.SystemConfig{Unified: base, PurgeInterval: quantum})
		if err != nil {
			t.Fatal(err)
		}
		manual, err := cache.NewSystem(cache.SystemConfig{Unified: base})
		if err != nil {
			t.Fatal(err)
		}
		sincePurge := 0
		for _, r := range refs {
			auto.Ref(r)
			if sincePurge >= quantum {
				manual.Purge()
				sincePurge = 0
			}
			sincePurge++
			manual.Ref(r)
		}
		if auto.RefStats() != manual.RefStats() {
			t.Errorf("%v: ref stats differ: auto %+v manual %+v", repl, auto.RefStats(), manual.RefStats())
		}
		if auto.Stats() != manual.Stats() {
			t.Errorf("%v: line stats differ: auto %+v manual %+v", repl, auto.Stats(), manual.Stats())
		}
		// Identical histories build identical logical state — for Random
		// too, since the purge schedules (and so the rng draws) align.
		if !auto.StateEqual(manual) {
			t.Errorf("%v: end states differ under identical purge schedules", repl)
		}
	}
}
