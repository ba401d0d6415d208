package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cacheeval/internal/trace"
)

// drainRecycler empties every recycler pool: sync.Pool moves its contents
// to a victim cache at one collection and drops them at the next, so after
// two a constructor draws fresh, zeroed arrays from the heap.
func drainRecycler() {
	runtime.GC()
	runtime.GC()
}

// donorConfigs returns a larger and a smaller cache whose arrays land in
// cfg's recycler classes: twice (half) the capacity at twice (half) the
// line size keeps the frame count, and so the tag-table length, while every
// tag, link and sector mask the donor leaves behind differs from what cfg
// would write there.
func donorConfigs(cfg Config) [2]Config {
	larger, smaller := cfg, cfg
	larger.Size, larger.LineSize = cfg.Size*2, cfg.LineSize*2
	smaller.Size, smaller.LineSize = cfg.Size/2, cfg.LineSize/2
	return [2]Config{larger, smaller}
}

// recycleRefs is a seeded stream of instruction fetches, reads and writes
// over a footprint larger than the fan-out tests' smaller sizes, with some
// references straddling a line boundary.
func recycleRefs(n int, seed int64) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(rng.Intn(8192)) * 2, Size: uint8(1 << rng.Intn(3)), Kind: trace.Kind(rng.Intn(3))}
	}
	return refs
}

func mustFanout(t *testing.T, cfg FanoutConfig) *FanoutSystem {
	t.Helper()
	f, err := NewFanoutSystem(cfg)
	if err != nil {
		t.Fatalf("NewFanoutSystem(%+v): %v", cfg, err)
	}
	return f
}

func runFanout(t *testing.T, f *FanoutSystem, refs []trace.Ref) {
	t.Helper()
	for _, r := range refs {
		f.Ref(r)
	}
}

// TestRecycledMatchesNew checks that a cache built from released arrays
// simulates bit-identically to one built on a fresh heap, for every
// replacement policy and each organization that carries extra state (3C
// attribution, a victim buffer, sectors, write combining), fully and
// set-associative, scanned and tag-indexed. The donors are run with purges
// and then released, so the recycled arrays hold stale frames, links, tag
// slots, ARC history and victim entries; a recycled cache must have reset
// all of it. Random is included: its rng is reseeded per cache, not pooled.
func TestRecycledMatchesNew(t *testing.T) {
	variants := []struct {
		name   string
		cfg    Config
		causes bool
	}{
		{"plain", Config{Size: 512, LineSize: 16}, false},
		{"3C", Config{Size: 512, LineSize: 16}, true},
		{"victim", Config{Size: 512, LineSize: 16, VictimLines: 3}, false},
		{"sectored+prefetch", Config{Size: 512, LineSize: 32, SubBlock: 8, Fetch: PrefetchAlways}, false},
		{"write-combining", Config{Size: 512, LineSize: 16, Write: WriteThrough, CombineWidth: 8}, false},
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
	cases, recycled := 0, 0
	for _, repl := range Replacements() {
		for _, v := range variants {
			// Fully associative (tag-indexed), 4-way (scanned sets) and
			// 16-way (tag-indexed sets slicing one shared table).
			for _, assoc := range []int{0, 4, 16} {
				cfg := v.cfg
				cfg.Repl, cfg.Seed, cfg.Assoc = repl, 7, assoc
				name := fmt.Sprintf("%v %s assoc %d", repl, v.name, assoc)
				drainRecycler()
				fresh := mustCache(t, cfg)
				var donated []*node
				for i, dcfg := range donorConfigs(cfg) {
					donor := mustCache(t, dcfg)
					run(donor, int64(10+i))
					donated = append(donated, &donor.frames[0])
					donor.Release()
				}
				target := mustCache(t, cfg)
				cases++
				if p := &target.frames[0]; p == donated[0] || p == donated[1] {
					recycled++
				}
				if v.causes {
					fresh.EnableMissCauses()
					target.EnableMissCauses()
				}
				if !target.stateEqual(fresh) || target.Resident() != 0 {
					t.Errorf("%s: recycled cache not empty", name)
				}
				if err := target.checkInvariants(); err != nil {
					t.Errorf("%s: recycled cache: %v", name, err)
				}
				run(target, 2)
				run(fresh, 2)
				if target.Stats() != fresh.Stats() || causes(target) != causes(fresh) {
					t.Errorf("%s: streams diverged:\nrecycled %+v %v\nfresh    %+v %v",
						name, target.Stats(), causes(target), fresh.Stats(), causes(fresh))
				}
				if !target.stateEqual(fresh) {
					t.Errorf("%s: stream left different state", name)
				}
				if err := target.checkInvariants(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
	// Under the race detector sync.Pool drops a quarter of its Puts, so
	// only most cases are guaranteed a recycled array; without it, all are.
	if recycled < cases/2 {
		t.Errorf("only %d of %d targets drew a released frame array", recycled, cases)
	}
}

// TestFanoutRecycledMatchesNew is TestRecycledMatchesNew for the fan-out
// engine: an engine built from a larger and a smaller engine's released
// arrays produces the same results and state as one built on a fresh heap.
func TestFanoutRecycledMatchesNew(t *testing.T) {
	refs := recycleRefs(40000, 3)
	for _, split := range []bool{false, true} {
		cfg := FanoutConfig{Sizes: []int{64, 256, 1024, 4096}, LineSize: 16, Split: split, PurgeInterval: 7000}
		drainRecycler()
		fresh := mustFanout(t, cfg)
		for i, d := range []struct{ mul, div int }{{2, 1}, {1, 2}} {
			dcfg := FanoutConfig{LineSize: cfg.LineSize * d.mul / d.div, Split: split, PurgeInterval: 3000}
			for _, size := range cfg.Sizes {
				dcfg.Sizes = append(dcfg.Sizes, size*d.mul/d.div)
			}
			donor := mustFanout(t, dcfg)
			runFanout(t, donor, recycleRefs(20000, int64(10+i)))
			donor.Release()
		}
		target := mustFanout(t, cfg)
		runFanout(t, target, refs)
		runFanout(t, fresh, refs)
		got, want := target.Results(), fresh.Results()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("split=%v size %d: recycled %+v, fresh %+v", split, want[i].Size, got[i], want[i])
			}
		}
		if !target.stateEqual(fresh) {
			t.Errorf("split=%v: recycled engine left different state", split)
		}
	}
}

// TestUseAfterReleasePanics checks that a released simulator cannot go on
// silently sharing arrays another simulator now owns, and that a second
// Release does not hand the same arrays out twice.
func TestUseAfterReleasePanics(t *testing.T) {
	ref := trace.Ref{Addr: 64, Size: 4, Kind: trace.Read}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Release did not panic", name)
			}
		}()
		f()
	}
	cfg := Config{Size: 1024, LineSize: 16, Assoc: 2, VictimLines: 2}
	c := mustCache(t, cfg)
	c.Access(0, true, 4)
	c.Release()
	c.Release()
	mustPanic("Cache.Access", func() { c.Access(0, false, 0) })
	a, b := mustCache(t, cfg), mustCache(t, cfg)
	if &a.frames[0] == &b.frames[0] {
		t.Error("a double Release handed one frame array to two caches")
	}

	sys, err := NewSystem(splitSC(512))
	if err != nil {
		t.Fatal(err)
	}
	sys.Release()
	mustPanic("System.Ref", func() { sys.Ref(ref) })

	h := mustHierarchy(t, hierHC(256, 2048))
	h.Release()
	mustPanic("Hierarchy.Ref", func() { h.Ref(ref) })

	for _, sizes := range [][]int{{64}, {64, 4096}} {
		f := mustFanout(t, FanoutConfig{Sizes: sizes, LineSize: 16})
		f.Ref(ref)
		f.Release()
		f.Release()
		mustPanic("FanoutSystem.Ref", func() { f.Ref(ref) })
	}
}
