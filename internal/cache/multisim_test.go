package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// conform runs one engine over (grid, workload) through the conformance
// entry point, so every equivalence test also checks the paper invariants.
func conform(t *testing.T, e simcheck.Engine, g simcheck.Grid, w simcheck.Workload) *simcheck.Outcome {
	t.Helper()
	o, err := simcheck.Run(e, g, w)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// mustCompare asserts bit-identical outcomes.
func mustCompare(t *testing.T, label string, got, want *simcheck.Outcome) {
	t.Helper()
	if err := simcheck.Compare(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestMultiSystemMatchesPerSizeRuns is the equivalence property: across
// workload shapes, size grids, organizations and purge quanta, the one-pass
// engine's per-size statistics are bit-identical to independent per-size
// System simulations (and both satisfy every simcheck invariant).
func TestMultiSystemMatchesPerSizeRuns(t *testing.T) {
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
					g := simcheck.Grid{Sizes: sizes, LineSize: 16, Split: split}
					w := simcheck.Workload{
						Name:    fmt.Sprintf("synth(seed=%d,q=%d)", seed, q),
						Refs:    refs,
						Quantum: q,
					}
					got := conform(t, simcheck.MultiEngine{}, g, w)
					want := conform(t, simcheck.SystemEngine{}, g, w)
					label := fmt.Sprintf("seed=%d sizes=%v quantum=%d split=%v", seed, sizes, q, split)
					mustCompare(t, label, got, want)
				}
			}
		}
	}
	// A workload that grows the engine's line index from its initial 64
	// slots to at least 16384 in one purge epoch: four members, each
	// rebased at (i+1)<<33 so their lines differ only in high bits,
	// interleaved 1000 references at a time. The nonzero quantum purges
	// once the index has grown, so the second epoch runs on a grown,
	// cleared index.
	refs := wideStream(4, 15000, 1000)
	const half = 30000
	if n := distinctLines(refs[:half], 16); n < 5000 {
		t.Fatalf("wide stream's first %d references touch %d distinct lines, want >= 5000", half, n)
	}
	for _, sizes := range append(sizeGrids, []int{1024, 65536, 131072}) {
		for _, q := range []int{0, half} {
			for _, split := range []bool{false, true} {
				g := simcheck.Grid{Sizes: sizes, LineSize: 16, Split: split}
				w := simcheck.Workload{Name: fmt.Sprintf("wide(q=%d)", q), Refs: refs, Quantum: q}
				label := fmt.Sprintf("wide sizes=%v quantum=%d split=%v", sizes, q, split)
				mustCompare(t, label, conform(t, simcheck.MultiEngine{}, g, w), conform(t, simcheck.SystemEngine{}, g, w))
			}
		}
	}
}

// wideStream interleaves members synthetic streams of n references each,
// chunk references at a time, with member i's addresses rebased at
// (i+1)<<33.
func wideStream(members, n, chunk int) []trace.Ref {
	streams := make([][]trace.Ref, members)
	for i := range streams {
		streams[i] = simcheck.Stream(int64(100+i), n)
		for j := range streams[i] {
			streams[i][j].Addr += uint64(i+1) << 33
		}
	}
	var refs []trace.Ref
	for at := 0; at < n; at += chunk {
		for _, st := range streams {
			refs = append(refs, st[at:min(at+chunk, n)]...)
		}
	}
	return refs
}

// distinctLines counts the lineSize-byte lines refs touch.
func distinctLines(refs []trace.Ref, lineSize uint64) int {
	seen := make(map[uint64]bool)
	for _, r := range refs {
		for a := r.Addr / lineSize; a <= (r.Addr+uint64(max(r.Size, 1))-1)/lineSize; a++ {
			seen[a] = true
		}
	}
	return len(seen)
}

// TestMultiSystemMatchesReferenceModel closes the loop against the naive
// reference simulator itself (not just the per-size production path).
func TestMultiSystemMatchesReferenceModel(t *testing.T) {
	refs := simcheck.Stream(21, 3000)
	for _, split := range []bool{false, true} {
		g := simcheck.Grid{Sizes: []int{64, 512, 4096}, LineSize: 16, Split: split}
		w := simcheck.Workload{Name: "reference-pin", Refs: refs, Quantum: 250}
		got := conform(t, simcheck.MultiEngine{}, g, w)
		want := conform(t, simcheck.ReferenceEngine{}, g, w)
		mustCompare(t, fmt.Sprintf("split=%v", split), got, want)
	}
}

// TestMultiSystemUnsortedDuplicateSizes checks that result order follows the
// requested size order even when it is unsorted and contains duplicates.
func TestMultiSystemUnsortedDuplicateSizes(t *testing.T) {
	refs := simcheck.Stream(9, 2000)
	g := simcheck.Grid{Sizes: []int{1024, 32, 1024, 256}, LineSize: 16}
	w := simcheck.Workload{Name: "dup", Refs: refs, Quantum: 100}
	got := conform(t, simcheck.MultiEngine{}, g, w)
	want := conform(t, simcheck.SystemEngine{}, g, w)
	mustCompare(t, "dup", got, want)
	if got.Results[0].U != got.Results[2].U {
		t.Error("duplicate sizes must report identical stats")
	}
}

// TestMultiSystemLineSizes varies the line size (and thus straddle
// behaviour).
func TestMultiSystemLineSizes(t *testing.T) {
	refs := simcheck.Stream(11, 2500)
	for _, ls := range []int{4, 16, 64} {
		g := simcheck.Grid{Sizes: []int{ls * 2, ls * 16, ls * 64}, LineSize: ls}
		w := simcheck.Workload{Name: "linesize", Refs: refs, Quantum: 73}
		mustCompare(t, fmt.Sprintf("linesize=%d", ls),
			conform(t, simcheck.MultiEngine{}, g, w),
			conform(t, simcheck.SystemEngine{}, g, w))
	}
}

// TestMultiSystemValidation mirrors the per-size construction errors.
func TestMultiSystemValidation(t *testing.T) {
	cases := []cache.MultiConfig{
		{Sizes: nil, LineSize: 16},
		{Sizes: []int{100}, LineSize: 16}, // not a power of two
		{Sizes: []int{8}, LineSize: 16},   // line larger than cache
		{Sizes: []int{64}, LineSize: 0},   // invalid line size
		{Sizes: []int{64}, LineSize: 16, PurgeInterval: -1},
	}
	for i, cfg := range cases {
		if _, err := cache.NewMultiSystem(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

// TestMultiSystemRefAfterResultsPanics documents the single-use contract.
func TestMultiSystemRefAfterResultsPanics(t *testing.T) {
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: []int{64}, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ms.Ref(trace.Ref{Addr: 0, Size: 4})
	ms.Results()
	defer func() {
		if recover() == nil {
			t.Error("Ref after Results should panic")
		}
	}()
	ms.Ref(trace.Ref{Addr: 16, Size: 4})
}

// TestMultiSystemMonotone: under stack inclusion misses never increase
// with size, and a cache larger than the footprint misses only on first
// touches.
func TestMultiSystemMonotone(t *testing.T) {
	var sizes []int
	for size := 32; size <= 65536; size *= 2 {
		sizes = append(sizes, size)
	}
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	lines := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		addr := uint64(rng.Intn(400)) * 8
		lines[addr/16] = true
		ms.Ref(trace.Ref{Addr: addr, Size: 1})
	}
	prev := ^uint64(0)
	for _, r := range ms.Results() {
		m := r.Ref.TotalMisses()
		if m > prev {
			t.Fatalf("misses increased with size at %d: %d > %d", r.Size, m, prev)
		}
		prev = m
	}
	// 400 8-byte slots span 200 lines, well inside 64 KB.
	if prev != uint64(len(lines)) {
		t.Fatalf("largest-cache misses = %d, want footprint %d", prev, len(lines))
	}
}
