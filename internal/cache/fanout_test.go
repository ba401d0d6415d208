package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
)

// prefetchGrid is a demand grid flipped to prefetch-always.
func prefetchGrid(sizes []int, lineSize int, split bool) simcheck.Grid {
	return simcheck.Grid{Sizes: sizes, LineSize: lineSize, Split: split, Prefetch: true}
}

// TestFanoutMatchesPerSizeRuns is the deterministic equivalence oracle:
// across workload shapes, size grids, organizations and purge quanta, the
// fan-out engine's per-size statistics are bit-identical to independent
// per-size prefetch-always System simulations.
func TestFanoutMatchesPerSizeRuns(t *testing.T) {
	sizeGrids := [][]int{
		{32, 64, 128, 256, 1024, 4096},
		{16, 16384},
		{512},
	}
	quanta := []int{0, 37, 500}
	for seed := int64(1); seed <= 4; seed++ {
		refs := simcheck.Stream(seed, 4000)
		for _, sizes := range sizeGrids {
			for _, q := range quanta {
				for _, split := range []bool{false, true} {
					g := prefetchGrid(sizes, 16, split)
					w := simcheck.Workload{
						Name:    fmt.Sprintf("synth(seed=%d,q=%d)", seed, q),
						Refs:    refs,
						Quantum: q,
					}
					got := conform(t, simcheck.FanoutEngine{}, g, w)
					want := conform(t, simcheck.SystemEngine{}, g, w)
					label := fmt.Sprintf("seed=%d sizes=%v quantum=%d split=%v", seed, sizes, q, split)
					mustCompare(t, label, got, want)
				}
			}
		}
	}
}

// TestFanoutRandomizedEquivalence sweeps randomly drawn configurations —
// stream shape, line size, size set, organization, and purge quantum
// (including the paper's M68000 15,000-reference quantum) — through the
// fan-out engine, the per-size production path, and the naive reference
// model. The generator is seeded so failures reproduce.
func TestFanoutRandomizedEquivalence(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		g := simcheck.RandGrid(rng, true)
		w := simcheck.RandWorkload(rng, 4000)
		got := conform(t, simcheck.FanoutEngine{}, g, w)
		want := conform(t, simcheck.SystemEngine{}, g, w)
		mustCompare(t, fmt.Sprintf("trial=%d grid=%+v workload=%s", trial, g, w.Name), got, want)
		if trial%4 == 0 {
			// The naive model is slow; spot-check it on a quarter of trials.
			ref := conform(t, simcheck.ReferenceEngine{}, g, w)
			mustCompare(t, fmt.Sprintf("trial=%d vs reference", trial), got, ref)
		}
	}
}

// TestFanoutUnsortedDuplicateSizes checks that result order follows the
// requested size order even when it is unsorted and contains duplicates.
func TestFanoutUnsortedDuplicateSizes(t *testing.T) {
	refs := simcheck.Stream(9, 2000)
	g := prefetchGrid([]int{1024, 32, 1024, 256}, 16, false)
	w := simcheck.Workload{Name: "dup", Refs: refs, Quantum: 100}
	got := conform(t, simcheck.FanoutEngine{}, g, w)
	want := conform(t, simcheck.SystemEngine{}, g, w)
	mustCompare(t, "dup", got, want)
	if got.Results[0].U != got.Results[2].U {
		t.Error("duplicate sizes must report identical stats")
	}
}

// TestFanoutResultsSnapshot documents that Results does not end the run:
// the engine keeps simulating and a later snapshot matches an oracle over
// the longer stream.
func TestFanoutResultsSnapshot(t *testing.T) {
	refs := simcheck.Stream(3, 3000)
	cfg := cache.FanoutConfig{Sizes: []int{64, 512}, LineSize: 16, PurgeInterval: 250}
	g := prefetchGrid(cfg.Sizes, cfg.LineSize, false)
	fs, err := cache.NewFanoutSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs[:1000] {
		fs.Ref(r)
	}
	mid := &simcheck.Outcome{Engine: "fanout", Grid: g,
		Workload: simcheck.Workload{Refs: refs[:1000], Quantum: cfg.PurgeInterval},
		Results:  fs.Results(), Purges: fs.Purges()}
	mustCompare(t, "snapshot-mid", mid,
		conform(t, simcheck.SystemEngine{}, g, simcheck.Workload{Name: "mid", Refs: refs[:1000], Quantum: cfg.PurgeInterval}))
	for _, r := range refs[1000:] {
		fs.Ref(r)
	}
	end := &simcheck.Outcome{Engine: "fanout", Grid: g,
		Workload: simcheck.Workload{Refs: refs, Quantum: cfg.PurgeInterval},
		Results:  fs.Results(), Purges: fs.Purges()}
	mustCompare(t, "snapshot-end", end,
		conform(t, simcheck.SystemEngine{}, g, simcheck.Workload{Name: "end", Refs: refs, Quantum: cfg.PurgeInterval}))
}

// TestFanoutValidation mirrors the per-size construction errors.
func TestFanoutValidation(t *testing.T) {
	cases := []cache.FanoutConfig{
		{Sizes: nil, LineSize: 16},
		{Sizes: []int{100}, LineSize: 16}, // not a power of two
		{Sizes: []int{8}, LineSize: 16},   // line larger than cache
		{Sizes: []int{64}, LineSize: 0},   // invalid line size
		{Sizes: []int{64}, LineSize: 16, PurgeInterval: -1},
	}
	for i, cfg := range cases {
		if _, err := cache.NewFanoutSystem(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}
