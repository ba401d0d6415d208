package cache

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestShadowGrowsWithUnits checks that the 3C shadow's arrays follow the
// fetch units a run references, not the cache's capacity in units: a
// 1 MiB cache of 1-byte sub-blocks has 1M units, and its shadow starts at
// shadowStartUnits frames and doubles only once the run has filled it.
func TestShadowGrowsWithUnits(t *testing.T) {
	c := mustCache(t, Config{Size: 1 << 20, LineSize: 64, SubBlock: 1})
	c.EnableMissCauses()
	frames := func() int { return len(c.causes.shadow.frames) }
	for addr := range uint64(shadowStartUnits - 1) {
		c.Access(addr, false, 0)
	}
	if got := frames(); got != shadowStartUnits {
		t.Fatalf("shadow after %d units: %d frames, want %d", shadowStartUnits-1, got, shadowStartUnits)
	}
	c.Access(shadowStartUnits-1, false, 0)
	if got := frames(); got != 2*shadowStartUnits {
		t.Fatalf("shadow after %d units: %d frames, want %d", shadowStartUnits, got, 2*shadowStartUnits)
	}
	c.Purge()
	for addr := range uint64(3 * shadowStartUnits) {
		c.Access(addr, false, 0)
	}
	if got := frames(); got != 4*shadowStartUnits {
		t.Fatalf("shadow after %d units: %d frames, want %d", 3*shadowStartUnits, got, 4*shadowStartUnits)
	}
	if err := c.causes.shadow.checkInvariants(); err != nil {
		t.Fatalf("grown shadow: %v", err)
	}

	small := mustCache(t, Config{Size: 1024, LineSize: 16, SubBlock: 4})
	small.EnableMissCauses()
	if got := len(small.causes.shadow.frames); got != 256 {
		t.Errorf("shadow of a 256-unit cache: %d frames, want 256", got)
	}
}

// TestUnitSet checks the seen set against a Go map over dense runs, sparse
// ones and far-apart units, through several doublings of its table.
func TestUnitSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s, want := newUnitSet(seenStartSlots), map[uint64]bool{}
	for i := range 200000 {
		var unit uint64
		switch i % 3 {
		case 0: // dense: a few thousand units
			unit = rng.Uint64N(4096)
		case 1: // sparse: one unit per page
			unit = rng.Uint64N(20000) * pageUnits * 5
		default: // anywhere, the top pages included
			unit = rng.Uint64() | uint64(i%2)<<63
		}
		if got := s.add(unit); got != want[unit] {
			t.Fatalf("add(%#x) #%d = %v, want %v", unit, i, got, want[unit])
		}
		want[unit] = true
	}
	if 4*s.used > 3*len(s.keys) {
		t.Errorf("%d pages in %d slots: load above 3/4", s.used, len(s.keys))
	}
}

// TestUnitSetSparseBytes pins the seen set's worst case, a run whose every
// unit lies on a page of its own: over 2.6k to 100k units it allocates at
// most 80 bytes per distinct unit, counting every table it outgrew. A Go
// map, which the seen set replaced, allocated 47-76.
func TestUnitSetSparseBytes(t *testing.T) {
	for _, n := range []int{2600, 4000, 6200, 12300, 24600, 49200, 100000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := newUnitSet(seenStartSlots)
		for i := range uint64(n) {
			s.add(i * pageUnits)
		}
		runtime.ReadMemStats(&after)
		perUnit := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%d sparse units: %.1f B/unit in %d slots", n, perUnit, len(s.keys))
		if perUnit > 80 {
			t.Errorf("%d sparse units: %.1f bytes allocated per unit, want <= 80", n, perUnit)
		}
	}
}
