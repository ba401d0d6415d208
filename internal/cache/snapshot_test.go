package cache_test

import (
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
)

// TestMultiSystemRefSnapshot checks the sampled driver's contract: at any
// point mid-run, RefSnapshot equals the RefStats of independent per-size
// Systems fed the same prefix, and the final snapshot matches Results.
func TestMultiSystemRefSnapshot(t *testing.T) {
	refs := simcheck.Stream(11, 6000)
	sizes := []int{64, 1024, 256, 1024} // unsorted with a duplicate
	for _, split := range []bool{false, true} {
		ms, err := cache.NewMultiSystem(cache.MultiConfig{
			Sizes: sizes, LineSize: 16, Split: split, PurgeInterval: 700,
		})
		if err != nil {
			t.Fatal(err)
		}
		systems := make([]*cache.System, len(sizes))
		for i, size := range sizes {
			base := cache.Config{Size: size, LineSize: 16}
			sc := cache.SystemConfig{PurgeInterval: 700}
			if split {
				sc.Split = true
				sc.I, sc.D = base, base
			} else {
				sc.Unified = base
			}
			if systems[i], err = cache.NewSystem(sc); err != nil {
				t.Fatal(err)
			}
		}
		var snap []cache.RefStats
		for n, r := range refs {
			ms.Ref(r)
			for _, sys := range systems {
				sys.Ref(r)
			}
			if n%997 == 0 || n == len(refs)-1 {
				snap = ms.RefSnapshot(snap)
				for i, sys := range systems {
					if snap[i] != sys.RefStats() {
						t.Fatalf("split=%v n=%d size=%d: snapshot %+v != system %+v",
							split, n, sizes[i], snap[i], sys.RefStats())
					}
				}
			}
		}
		for i, res := range ms.Results() {
			if snap[i] != res.Ref {
				t.Errorf("split=%v size=%d: final snapshot %+v != Results %+v",
					split, sizes[i], snap[i], res.Ref)
			}
		}
	}
}

// TestFanoutRefSnapshot is the same contract for the prefetch engine.
func TestFanoutRefSnapshot(t *testing.T) {
	refs := simcheck.Stream(13, 6000)
	sizes := []int{64, 512, 64}
	fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
		Sizes: sizes, LineSize: 16, PurgeInterval: 450,
	})
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*cache.System, len(sizes))
	for i, size := range sizes {
		sc := cache.SystemConfig{
			Unified:       cache.Config{Size: size, LineSize: 16, Fetch: cache.PrefetchAlways},
			PurgeInterval: 450,
		}
		if systems[i], err = cache.NewSystem(sc); err != nil {
			t.Fatal(err)
		}
	}
	var snap []cache.RefStats
	for n, r := range refs {
		fs.Ref(r)
		for _, sys := range systems {
			sys.Ref(r)
		}
		if n%1013 == 0 || n == len(refs)-1 {
			snap = fs.RefSnapshot(snap)
			for i, sys := range systems {
				if snap[i] != sys.RefStats() {
					t.Fatalf("n=%d size=%d: snapshot %+v != system %+v",
						n, sizes[i], snap[i], sys.RefStats())
				}
			}
		}
	}
	for i, res := range fs.Results() {
		if snap[i] != res.Ref {
			t.Errorf("size=%d: final snapshot %+v != Results %+v", sizes[i], snap[i], res.Ref)
		}
	}
}

// TestMultiSystemExplicitPurge checks that driver-scheduled purging
// (PurgeInterval 0 plus explicit Purge calls at the same cadence) matches
// engine-scheduled purging exactly.
func TestMultiSystemExplicitPurge(t *testing.T) {
	refs := simcheck.Stream(17, 5000)
	const quantum = 300
	sizes := []int{128, 2048}
	auto, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16, PurgeInterval: quantum})
	if err != nil {
		t.Fatal(err)
	}
	manual, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	sincePurge := 0
	for _, r := range refs {
		auto.Ref(r)
		// Mirror System.Ref's schedule: purge before the ref once the
		// quantum has elapsed.
		if sincePurge >= quantum {
			manual.Purge()
			sincePurge = 0
		}
		sincePurge++
		manual.Ref(r)
	}
	if auto.Purges() != manual.Purges() {
		t.Fatalf("purge counts differ: auto=%d manual=%d", auto.Purges(), manual.Purges())
	}
	ar, mr := auto.Results(), manual.Results()
	for i := range ar {
		if ar[i] != mr[i] {
			t.Errorf("size %d: auto %+v != manual %+v", ar[i].Size, ar[i], mr[i])
		}
	}
}

// TestSystemExplicitPurgeAllPolicies extends the driver-scheduled purge
// contract to every replacement policy: a purge-free System purged
// manually on the trace clock must match an auto-purging one bit for bit —
// reference stats, line stats, and end state. This is what lets the
// sampled driver replay the serial purge schedule onto its purge-free
// targets for any policy (Random included: identical purge points keep
// the rng consumption aligned).
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

// TestStatsScaled checks the extrapolation helper's rounding and identity.
func TestStatsScaled(t *testing.T) {
	s := cache.Stats{Accesses: 101, Misses: 3, BytesFromMemory: 999, DirtyPushes: 1}
	if got := s.Scaled(1); got != s {
		t.Errorf("Scaled(1) must be the identity, got %+v", got)
	}
	got := s.Scaled(2.5)
	if got.Accesses != 253 || got.Misses != 8 || got.BytesFromMemory != 2498 {
		t.Errorf("Scaled(2.5) = %+v", got)
	}
	if (cache.Stats{}).Scaled(10) != (cache.Stats{}) {
		t.Error("scaling zero stats must stay zero")
	}
}
