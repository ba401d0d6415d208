package cache

import "testing"

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
