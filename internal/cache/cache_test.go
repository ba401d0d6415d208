package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mustCache builds a cache or fails the test.
func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	return c
}

// line returns the byte address of line i for a 16-byte line size.
func line(i int) uint64 { return uint64(i) * 16 }

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 16})
	if c.Access(line(1), false, 0) {
		t.Fatal("first access should miss")
	}
	if !c.Access(line(1), false, 0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(line(1)+15, false, 0) {
		t.Fatal("same line, different byte should hit")
	}
	if c.Access(line(2), false, 0) {
		t.Fatal("different line should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 || st.DemandFetches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesFromMemory != 32 {
		t.Fatalf("fetch bytes = %d, want 32", st.BytesFromMemory)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 4-line fully associative cache: touch 1,2,3,4, re-touch 1, add 5.
	// FIFO would evict 1; LRU must evict 2.
	c := mustCache(t, Config{Size: 64, LineSize: 16})
	for i := 1; i <= 4; i++ {
		c.Access(line(i), false, 0)
	}
	c.Access(line(1), false, 0) // 1 becomes MRU
	c.Access(line(5), false, 0) // evicts LRU = 2
	if !c.Contains(line(1)) {
		t.Error("line 1 should survive (recently used)")
	}
	if c.Contains(line(2)) {
		t.Error("line 2 should have been evicted")
	}
	if !c.Contains(line(3)) || !c.Contains(line(4)) || !c.Contains(line(5)) {
		t.Error("lines 3,4,5 should be resident")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 16, Repl: FIFO})
	for i := 1; i <= 4; i++ {
		c.Access(line(i), false, 0)
	}
	c.Access(line(1), false, 0) // hit; FIFO order unchanged
	c.Access(line(5), false, 0) // evicts oldest = 1
	if c.Contains(line(1)) {
		t.Error("FIFO should evict line 1 despite the recent hit")
	}
	if !c.Contains(line(2)) {
		t.Error("line 2 should be resident under FIFO")
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []bool {
		c := mustCache(t, Config{Size: 64, LineSize: 16, Repl: Random, Seed: seed})
		rng := rand.New(rand.NewSource(7))
		var hits []bool
		for i := 0; i < 200; i++ {
			hits = append(hits, c.Access(line(rng.Intn(12)), false, 0))
		}
		return hits
	}
	a, b := run(1), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical behaviour")
		}
	}
	c := run(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical eviction sequences (suspicious)")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Direct mapped, 4 sets: lines 0 and 4 collide; 0,1 do not.
	c := mustCache(t, Config{Size: 64, LineSize: 16, Assoc: 1})
	c.Access(line(0), false, 0)
	c.Access(line(1), false, 0)
	if !c.Contains(line(0)) || !c.Contains(line(1)) {
		t.Fatal("distinct sets should coexist")
	}
	c.Access(line(4), false, 0) // same set as 0
	if c.Contains(line(0)) {
		t.Error("conflicting line should evict the old occupant")
	}
	if !c.Contains(line(4)) || !c.Contains(line(1)) {
		t.Error("line 4 and line 1 should be resident")
	}
}

func TestSetAssocMapping(t *testing.T) {
	// 2-way, 2 sets (4 lines): even lines map to set 0, odd to set 1.
	c := mustCache(t, Config{Size: 64, LineSize: 16, Assoc: 2})
	c.Access(line(0), false, 0)
	c.Access(line(2), false, 0)
	c.Access(line(4), false, 0) // evicts 0 (LRU within set 0)
	if c.Contains(line(0)) {
		t.Error("line 0 should be evicted from its 2-way set")
	}
	if !c.Contains(line(2)) || !c.Contains(line(4)) {
		t.Error("lines 2,4 should be resident")
	}
	c.Access(line(1), false, 0)
	if !c.Contains(line(1)) || !c.Contains(line(2)) || !c.Contains(line(4)) {
		t.Error("odd set must not disturb even set")
	}
}

func TestCopyBackDirtyWriteback(t *testing.T) {
	c := mustCache(t, Config{Size: 32, LineSize: 16}) // 2 lines
	c.Access(line(0), true, 8)                        // write miss: fetch-on-write
	st := c.Stats()
	if st.WriteMisses != 1 || st.DemandFetches != 1 {
		t.Fatalf("fetch-on-write stats = %+v", st)
	}
	if st.BytesToMemory != 0 {
		t.Fatal("copy-back must not write memory on the store")
	}
	c.Access(line(1), false, 0)
	c.Access(line(2), false, 0) // evicts dirty line 0
	st = c.Stats()
	if st.Pushes != 1 || st.DirtyPushes != 1 {
		t.Fatalf("push stats = %+v", st)
	}
	if st.BytesToMemory != 16 {
		t.Fatalf("write-back bytes = %d, want 16 (one line)", st.BytesToMemory)
	}
	c.Access(line(3), false, 0) // evicts clean line 1
	st = c.Stats()
	if st.Pushes != 2 || st.DirtyPushes != 1 {
		t.Fatalf("clean push stats = %+v", st)
	}
}

func TestWriteThroughTraffic(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 16, Write: WriteThrough})
	c.Access(line(0), true, 4) // miss: store 4 bytes + allocate
	st := c.Stats()
	if st.BytesToMemory != 4 {
		t.Fatalf("miss store bytes = %d, want 4", st.BytesToMemory)
	}
	if st.BytesFromMemory != 16 {
		t.Fatalf("write-allocate fetch = %d, want 16", st.BytesFromMemory)
	}
	c.Access(line(0), true, 4) // hit: store goes through
	st = c.Stats()
	if st.BytesToMemory != 8 {
		t.Fatalf("hit store bytes = %d, want 8", st.BytesToMemory)
	}
	// Write-through lines are never dirty.
	c.Purge()
	st = c.Stats()
	if st.DirtyPushes != 0 {
		t.Fatal("write-through must never push dirty lines")
	}
	if st.BytesToMemory != 8 {
		t.Fatalf("purge added write-back bytes: %d", st.BytesToMemory)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 16, Write: WriteThrough, NoWriteAllocate: true})
	if c.Access(line(0), true, 4) {
		t.Fatal("write miss should miss")
	}
	if c.Contains(line(0)) {
		t.Fatal("no-write-allocate must not bring the line in")
	}
	st := c.Stats()
	if st.BytesToMemory != 4 || st.BytesFromMemory != 0 || st.DemandFetches != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Reads still allocate.
	c.Access(line(0), false, 0)
	if !c.Contains(line(0)) {
		t.Fatal("read should allocate")
	}
}

func TestPurge(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 16})
	c.Access(line(0), true, 8)
	c.Access(line(1), false, 0)
	c.Access(line(2), false, 0)
	if c.Resident() != 3 {
		t.Fatalf("resident = %d, want 3", c.Resident())
	}
	c.Purge()
	if c.Resident() != 0 {
		t.Fatalf("resident after purge = %d", c.Resident())
	}
	st := c.Stats()
	if st.Pushes != 3 || st.PurgePushes != 3 || st.DirtyPushes != 1 {
		t.Fatalf("purge stats = %+v", st)
	}
	if st.BytesToMemory != 16 {
		t.Fatalf("purge write-back = %d, want 16", st.BytesToMemory)
	}
	// The cache must be fully usable after a purge.
	if c.Access(line(1), false, 0) {
		t.Fatal("post-purge access should miss")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchAlways(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 16, Fetch: PrefetchAlways})
	c.Access(line(3), false, 0) // miss line 3, prefetch line 4
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("prefetch counted as a miss: %+v", st)
	}
	if st.PrefetchFetches != 1 {
		t.Fatalf("prefetch fetches = %d, want 1", st.PrefetchFetches)
	}
	if !c.Contains(line(4)) {
		t.Fatal("line 4 should have been prefetched")
	}
	if st.BytesFromMemory != 32 {
		t.Fatalf("fetch traffic = %d, want 32 (demand + prefetch)", st.BytesFromMemory)
	}
	// Referencing the prefetched line is a hit and counts PrefetchUsed.
	if !c.Access(line(4), false, 0) {
		t.Fatal("prefetched line should hit")
	}
	st = c.Stats()
	if st.PrefetchUsed != 1 {
		t.Fatalf("PrefetchUsed = %d, want 1", st.PrefetchUsed)
	}
	// The hit on line 4 itself prefetched line 5, so 1 of 2 prefetches has
	// been used so far.
	if st.PrefetchFetches != 2 || st.PrefetchAccuracy() != 0.5 {
		t.Fatalf("PrefetchFetches = %d, accuracy = %v, want 2, 0.5",
			st.PrefetchFetches, st.PrefetchAccuracy())
	}
}

func TestPrefetchDoesNotRefetch(t *testing.T) {
	c := mustCache(t, Config{Size: 256, LineSize: 16, Fetch: PrefetchAlways})
	c.Access(line(3), false, 0)
	c.Access(line(3), false, 0) // line 4 already present: no new prefetch
	st := c.Stats()
	if st.PrefetchFetches != 1 {
		t.Fatalf("prefetch fetches = %d, want 1", st.PrefetchFetches)
	}
}

func TestSequentialStreamWithPrefetch(t *testing.T) {
	// A long sequential walk with prefetch-always should miss only on the
	// first line: every subsequent line was prefetched ahead.
	c := mustCache(t, Config{Size: 1024, LineSize: 16, Fetch: PrefetchAlways})
	misses := 0
	for i := 0; i < 32; i++ {
		if !c.Access(line(i), false, 0) {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("sequential misses with prefetch = %d, want 1", misses)
	}
}

func TestResetStats(t *testing.T) {
	c := mustCache(t, Config{Size: 64, LineSize: 16})
	c.Access(line(0), false, 0)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats should zero statistics")
	}
	if !c.Contains(line(0)) {
		t.Fatal("ResetStats must not disturb contents")
	}
}

// TestResetMatchesNew checks Reset against a freshly built cache for every
// replacement policy and each organization that carries extra state (a
// victim buffer, sectors, write combining, 3C attribution): after a run
// with purges, the reset cache is StateEqual to a new one with zero
// statistics, and the two then simulate a second stream identically —
// Random included, because Reset reseeds the rng.
func TestResetMatchesNew(t *testing.T) {
	variants := []struct {
		name   string
		cfg    Config
		causes bool
	}{
		{"4-way", Config{Size: 512, LineSize: 16, Assoc: 4}, false},
		{"fully-associative+3C", Config{Size: 512, LineSize: 16}, true},
		{"victim", Config{Size: 512, LineSize: 16, Assoc: 2, VictimLines: 3}, false},
		{"sectored+prefetch", Config{Size: 512, LineSize: 32, SubBlock: 8, Assoc: 2, Fetch: PrefetchAlways}, false},
		{"write-combining", Config{Size: 512, LineSize: 16, Assoc: 2, Write: WriteThrough, CombineWidth: 8}, false},
	}
	// A hot set interleaved with a scan that overflows the cache fills both
	// ARC ghost lists and moves its target; the final store leaves the
	// combining buffer live.
	run := func(c *Cache, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 6000; i++ {
			addr := uint64(rng.Intn(24)) * 16
			if i%2 == 1 {
				addr = uint64(64+i/2%40) * 16
			}
			c.Access(addr+uint64(rng.Intn(4))*4, rng.Intn(3) == 0, 4)
			if i%1400 == 1399 {
				c.Purge()
			}
		}
		c.Access(0, true, 4)
	}
	causes := func(c *Cache) [3]uint64 {
		a, b, d := c.MissCauses()
		return [3]uint64{a, b, d}
	}
	for _, repl := range Replacements() {
		for _, v := range variants {
			cfg := v.cfg
			cfg.Repl, cfg.Seed = repl, 7
			used, fresh := mustCache(t, cfg), mustCache(t, cfg)
			if v.causes {
				used.EnableMissCauses()
				fresh.EnableMissCauses()
			}
			run(used, 1)
			used.Reset()
			if !used.StateEqual(fresh) {
				t.Errorf("%v %s: reset cache not StateEqual to a new one", repl, v.name)
			}
			if used.Stats() != (Stats{}) || used.Resident() != 0 || causes(used) != ([3]uint64{}) {
				t.Errorf("%v %s: reset left stats %+v, %d resident, causes %v",
					repl, v.name, used.Stats(), used.Resident(), causes(used))
			}
			run(used, 2)
			run(fresh, 2)
			if used.Stats() != fresh.Stats() || causes(used) != causes(fresh) {
				t.Errorf("%v %s: second stream diverged:\nreset %+v %v\nnew   %+v %v",
					repl, v.name, used.Stats(), causes(used), fresh.Stats(), causes(fresh))
			}
			if !used.StateEqual(fresh) {
				t.Errorf("%v %s: second stream left different state", repl, v.name)
			}
			if err := used.checkInvariants(); err != nil {
				t.Errorf("%v %s: %v", repl, v.name, err)
			}
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Misses: 2, WriteAccesses: 3, WriteMisses: 4,
		DemandFetches: 5, PrefetchFetches: 6, PrefetchUsed: 7, Pushes: 8,
		DirtyPushes: 9, PurgePushes: 10, BytesFromMemory: 11, BytesToMemory: 12}
	b := a
	a.Add(b)
	if a.Accesses != 2 || a.Misses != 4 || a.BytesToMemory != 24 || a.PurgePushes != 20 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestStatsRatios(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.HitRatio() != 0 || s.FracPushesDirty() != 0 || s.PrefetchAccuracy() != 0 {
		t.Fatal("zero-value ratios must be 0")
	}
	s = Stats{Accesses: 10, Misses: 3, Pushes: 4, DirtyPushes: 1,
		DemandFetches: 3, PrefetchFetches: 2, PrefetchUsed: 1,
		BytesFromMemory: 80, BytesToMemory: 16}
	if s.MissRatio() != 0.3 || s.HitRatio() != 0.7 {
		t.Fatalf("miss/hit = %v/%v", s.MissRatio(), s.HitRatio())
	}
	if s.FracPushesDirty() != 0.25 {
		t.Fatalf("dirty frac = %v", s.FracPushesDirty())
	}
	if s.LinesFetched() != 5 {
		t.Fatalf("lines fetched = %d", s.LinesFetched())
	}
	if s.MemoryTraffic() != 96 {
		t.Fatalf("traffic = %d", s.MemoryTraffic())
	}
	if s.PrefetchAccuracy() != 0.5 {
		t.Fatalf("prefetch accuracy = %v", s.PrefetchAccuracy())
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	configs := []Config{
		{Size: 256, LineSize: 16},
		{Size: 256, LineSize: 16, Assoc: 1},
		{Size: 256, LineSize: 16, Assoc: 4, Repl: FIFO},
		{Size: 256, LineSize: 16, Repl: Random, Seed: 3},
		{Size: 256, LineSize: 16, Fetch: PrefetchAlways},
		{Size: 256, LineSize: 16, SubBlock: 4},
		{Size: 256, LineSize: 16, Write: WriteThrough},
		{Size: 256, LineSize: 16, Write: WriteThrough, NoWriteAllocate: true},
	}
	for _, cfg := range configs {
		c := mustCache(t, cfg)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(64)) * 4
			c.Access(addr, rng.Intn(3) == 0, 4)
			if i%1000 == 999 {
				c.Purge()
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
		st := c.Stats()
		if st.Misses > st.Accesses {
			t.Errorf("%v: misses %d > accesses %d", cfg, st.Misses, st.Accesses)
		}
		if st.DirtyPushes > st.Pushes {
			t.Errorf("%v: dirty pushes exceed pushes", cfg)
		}
		if st.PurgePushes > st.Pushes {
			t.Errorf("%v: purge pushes exceed pushes", cfg)
		}
		if st.PrefetchUsed > st.PrefetchFetches {
			t.Errorf("%v: prefetch used exceeds fetched", cfg)
		}
	}
}

// TestLRUInclusionProperty checks the property Table 1's one-pass
// methodology rests on: for fully-associative LRU with demand fetch, a
// bigger cache never misses more.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, 2000)
		for i := range addrs {
			// A loopy address pattern with occasional jumps.
			if i > 0 && rng.Float64() < 0.8 {
				addrs[i] = addrs[i-1] + 8
			} else {
				addrs[i] = uint64(rng.Intn(200)) * 16
			}
		}
		var prevMisses uint64 = ^uint64(0)
		for _, size := range []int{64, 128, 256, 512, 1024} {
			c, err := New(Config{Size: size, LineSize: 16})
			if err != nil {
				return false
			}
			for _, a := range addrs {
				c.Access(a, false, 0)
			}
			m := c.Stats().Misses
			if m > prevMisses {
				return false
			}
			prevMisses = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{Size: 100, LineSize: 16}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}
