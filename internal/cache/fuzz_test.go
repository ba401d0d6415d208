package cache_test

import (
	"math/rand"
	"slices"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// FuzzConfigValidate fuzzes the configuration space: Validate must never
// panic and must agree with New (New succeeds exactly when Validate passes),
// and any accepted configuration of testable size must survive a burst of
// accesses with clean internal invariants — cross-checked access-by-access
// against the naive reference model whenever the policy is deterministic.
func FuzzConfigValidate(f *testing.F) {
	f.Add(256, 16, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)
	f.Add(512, 32, 4, 8, uint8(1), uint8(0), uint8(0), false, 0)
	f.Add(256, 16, 0, 4, uint8(0), uint8(1), uint8(2), true, 8)
	f.Add(128, 16, 2, 8, uint8(2), uint8(0), uint8(3), false, 0)
	f.Add(256, 16, 0, 0, uint8(3), uint8(0), uint8(0), false, 0)  // LFU
	f.Add(512, 16, 4, 0, uint8(4), uint8(0), uint8(1), false, 0)  // SLRU + prefetch
	f.Add(256, 16, 2, 0, uint8(5), uint8(0), uint8(0), false, 0)  // ARC
	f.Add(100, 16, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)  // not pow2
	f.Add(16, 64, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)   // line > size
	f.Add(256, 16, 3, 0, uint8(0), uint8(0), uint8(0), false, 0)  // assoc not pow2
	f.Add(256, 16, 0, -1, uint8(0), uint8(0), uint8(0), false, 0) // negative sub-block
	f.Add(64, 64, 0, 0, uint8(0), uint8(0), uint8(0), false, -3)  // bad combine
	f.Add(256, 16, 0, 0, uint8(7), uint8(0), uint8(0), false, 0)  // out-of-range policy
	f.Fuzz(func(t *testing.T, size, lineSize, assoc, subBlock int, repl, write, fetch uint8, nwa bool, combine int) {
		// Policy bytes pass through raw on a slice of the space so the
		// out-of-range rejection paths stay fuzzed; the modulo keeps most
		// of the corpus inside the valid policy family.
		cfg := cache.Config{
			Size: size, LineSize: lineSize, Assoc: assoc, SubBlock: subBlock,
			Repl:            cache.Replacement(repl),
			Write:           cache.WritePolicy(write),
			Fetch:           cache.FetchPolicy(fetch),
			NoWriteAllocate: nwa, CombineWidth: combine,
		}
		if repl%4 != 3 {
			cfg.Repl = cache.Replacement(repl % 6)
			cfg.Write = cache.WritePolicy(write % 2)
			cfg.Fetch = cache.FetchPolicy(fetch % 4)
		}
		verr := cfg.Validate()
		if verr != nil {
			if _, err := cache.New(cfg); err == nil {
				t.Fatalf("Validate rejected %+v (%v) but New accepted it", cfg, verr)
			}
			return
		}
		if cfg.Size > 1<<18 {
			return // valid but too large to build at fuzzing throughput
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v but New rejected it: %v", cfg, err)
		}
		var oracle *simcheck.RefCache
		if cfg.Repl != cache.Random {
			if oracle, err = simcheck.NewRefCache(cfg); err != nil {
				t.Fatalf("reference model rejected valid config %+v: %v", cfg, err)
			}
		}
		rng := rand.New(rand.NewSource(int64(size)*2654435761 + int64(lineSize)))
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(1 << 12))
			write := rng.Intn(3) == 0
			got := c.Access(addr, write, 1)
			if oracle != nil {
				if want := oracle.Access(addr, write, 1); got != want {
					t.Fatalf("%+v ref %d (addr %#x write %v): impl hit=%v, oracle hit=%v",
						cfg, i, addr, write, got, want)
				}
			}
			if i == 150 {
				c.Purge()
				if oracle != nil {
					oracle.Purge()
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if oracle != nil {
			if got, want := c.Stats(), oracle.Stats(); got != want {
				t.Fatalf("%+v: stats diverge\n  impl %+v\noracle %+v", cfg, got, want)
			}
		}
	})
}

// FuzzMissCauses checks 3C miss attribution against a naive model. A seed
// draws a simcheck.RandConfig (the seeds below cover sectored,
// set-associative, prefetching, victim-buffered and write-through
// no-allocate caches) and a simcheck.Stream, purged every quantum
// references; checkMissCauses holds the model. A shape of 1 or 2 forces
// the draw to a cache that is its own shadow (ownShadowShape), copy-back
// or write-through, so the tracker runs without one.
func FuzzMissCauses(f *testing.F) {
	for seed := range int64(40) {
		f.Add(seed, []uint16{0, 53, 800}[seed%3], uint8(0))
	}
	for seed := range int64(20) {
		f.Add(seed, []uint16{0, 53, 800}[seed%3], uint8(1+seed%2))
	}
	f.Fuzz(func(t *testing.T, seed int64, quantum uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := simcheck.RandConfig(rng)
		if shape%3 != 0 {
			cfg = ownShadowShape(cfg, shape%3 == 2)
		}
		checkMissCauses(t, cfg, simcheck.Stream(rng.Int63(), 5000), int(quantum))
	})
}

// ownShadowShape returns cfg forced to a cache that is its own 3C shadow:
// fully associative, LRU, demand fetch, unsectored, write-allocate and
// without a victim buffer, copy-back or (writeThrough) write-through.
func ownShadowShape(cfg cache.Config, writeThrough bool) cache.Config {
	cfg.Assoc, cfg.Repl, cfg.Fetch, cfg.SubBlock, cfg.VictimLines = 0, cache.LRU, cache.DemandFetch, 0, 0
	cfg.Write, cfg.NoWriteAllocate, cfg.CombineWidth = cache.CopyBack, false, 0
	if writeThrough {
		cfg.Write = cache.WriteThrough
	}
	return cfg
}

// TestOwnShadow checks the caches that are their own 3C shadow. Drawn
// simcheck.RandConfigs forced to that shape, under both write policies and
// purged every 700 references, build no shadow, count no conflict miss,
// and split every miss into compulsory and capacity, as checkMissCauses's
// model does too. The same config with any one condition of the shape
// broken keeps its shadow; the write-through no-allocate one, whose write
// misses leave the cache behind the shadow, is judged by the model as
// well.
func TestOwnShadow(t *testing.T) {
	const quantum = 700
	rng := rand.New(rand.NewSource(31))
	for i := range 100 {
		cfg := ownShadowShape(simcheck.RandConfig(rng), i%2 == 1)
		refs := simcheck.Stream(rng.Int63(), 5000)
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		c.EnableMissCauses()
		if c.Shadowed() {
			t.Fatalf("%v: builds a shadow", cfg)
		}
		for j, r := range refs {
			if j > 0 && j%quantum == 0 {
				c.Purge()
			}
			c.Access(r.Addr, r.Kind == trace.Write, int(r.Size))
		}
		compulsory, capacity, conflict := c.MissCauses()
		if misses := c.Stats().Misses; conflict != 0 || compulsory+capacity != misses || compulsory == 0 {
			t.Fatalf("%v: MissCauses %d/%d/%d, want conflict 0 and compulsory + capacity = %d misses",
				cfg, compulsory, capacity, conflict, misses)
		}
		checkMissCauses(t, cfg, refs, quantum)

		noAllocate := cfg
		noAllocate.Write, noAllocate.NoWriteAllocate = cache.WriteThrough, true
		checkMissCauses(t, noAllocate, refs, quantum)
		for _, broken := range []cache.Config{noAllocate, with(cfg, func(c *cache.Config) { c.Assoc = 1 }),
			with(cfg, func(c *cache.Config) { c.Repl = cache.FIFO }),
			with(cfg, func(c *cache.Config) { c.Fetch = cache.PrefetchOnMiss }),
			with(cfg, func(c *cache.Config) { c.SubBlock = c.LineSize / 2 }),
			with(cfg, func(c *cache.Config) { c.VictimLines = 1 }),
		} {
			c, err := cache.New(broken)
			if err != nil {
				t.Fatalf("%+v: %v", broken, err)
			}
			c.EnableMissCauses()
			if !c.Shadowed() {
				t.Fatalf("%+v: builds no shadow", broken)
			}
		}
	}
}

// with returns cfg changed by edit.
func with(cfg cache.Config, edit func(*cache.Config)) cache.Config {
	edit(&cfg)
	return cfg
}

// TestMissCausesShadowGrowth runs checkMissCauses on caches of 8192
// fetch units, twice the 4096 the 3C shadow starts with, over a stream
// spread over four times simcheck.Stream's addresses so that it touches
// more units than that between purges: the shadow doubles mid-run and
// later evicts at full size, so a grown shadow that lost lines or their
// LRU order shows up as misattributed misses.
func TestMissCausesShadowGrowth(t *testing.T) {
	for _, cfg := range []cache.Config{
		{Size: 32768, LineSize: 4},                        // fully associative
		{Size: 32768, LineSize: 4, Assoc: 1},              // direct mapped
		{Size: 32768, LineSize: 8, SubBlock: 4, Assoc: 2}, // sectored
		{Size: 32768, LineSize: 16, SubBlock: 4, Assoc: 16},
		{Size: 32768, LineSize: 4, Assoc: 4, Fetch: cache.PrefetchOnMiss},
	} {
		for _, quantum := range []int{0, 15000} {
			refs := simcheck.Stream(int64(cfg.LineSize+cfg.Assoc+quantum), 30000)
			for i := range refs {
				refs[i].Addr *= 4
			}
			checkMissCauses(t, cfg, refs, quantum)
		}
	}
}

// checkMissCauses runs refs through a cause-enabled cache of cfg, purged
// every quantum references (0 = never), and checks MissCauses against a
// naive model. The model sees every demand access: a fetch unit it has
// never seen is compulsory, one missing from a slice LRU of
// Size/EffectiveSubBlock units is capacity, any other is conflict. It
// records a cause only when the cache's Stats().Misses rises, and a purge
// clears its LRU but not its seen set.
func checkMissCauses(t *testing.T, cfg cache.Config, refs []trace.Ref, quantum int) {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatalf("invalid %+v: %v", cfg, err)
	}
	c.EnableMissCauses()
	sub := uint64(cfg.EffectiveSubBlock())
	capUnits := cfg.Size / cfg.EffectiveSubBlock()
	seen := map[uint64]bool{}
	var lru []uint64 // most recently used first
	var want [3]uint64
	for i, r := range refs {
		if quantum > 0 && i > 0 && i%quantum == 0 {
			c.Purge()
			lru = lru[:0]
		}
		unit := r.Addr / sub
		everSeen := seen[unit]
		seen[unit] = true
		at := slices.Index(lru, unit)
		if at >= 0 {
			lru = slices.Delete(lru, at, at+1)
		} else if len(lru) == capUnits {
			lru = lru[:len(lru)-1]
		}
		lru = slices.Insert(lru, 0, unit)
		before := c.Stats().Misses
		c.Access(r.Addr, r.Kind == trace.Write, int(r.Size))
		if c.Stats().Misses == before {
			continue
		}
		switch {
		case !everSeen:
			want[0]++
		case at < 0:
			want[1]++
		default:
			want[2]++
		}
	}
	a, b, d := c.MissCauses()
	if got := [3]uint64{a, b, d}; got != want {
		t.Fatalf("%+v quantum %d: MissCauses %v, model %v", cfg, quantum, got, want)
	}
}
