package simcheck_test

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// runSweep drives core.RunSweep over a materialized stream.
func runSweep(t *testing.T, spec core.SweepSpec, refs []trace.Ref) core.SweepOut {
	t.Helper()
	out, err := core.RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "conformance", int64(len(refs)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sweepSpec is the core sweep spec a grid implies under quantum.
func sweepSpec(g simcheck.Grid, quantum int) core.SweepSpec {
	spec := core.SweepSpec{
		Sizes: g.Sizes, LineSize: g.LineSize, Split: g.Split, Quantum: quantum,
		Repl: g.Repl, Victim: g.Victim,
	}
	if g.Prefetch {
		spec.Fetch = cache.PrefetchAlways
	}
	if g.L2Size > 0 {
		spec.L2 = &core.L2Spec{Size: g.L2Size, LineSize: g.L2Line}
	}
	return spec
}

// fuzzPolicies are the replacement policies the fuzz grid draws from: every
// policy the reference models cover (all but Random).
var fuzzPolicies = []cache.Replacement{cache.LRU, cache.FIFO, cache.LFU, cache.SegmentedLRU, cache.ARC}

// fuzzCase is one decoded fuzz input: a simcheck.Stream seed and length,
// and a grid in the shape simcheck.RandGrid and RandHierGrid draw.
//   - sizes: the low 3 bits give the size count (1-5), then each 4-bit
//     field a size as the line size shifted by 0-9 (unsorted and repeated
//     sizes allowed).
//   - line: the line size, 4 << 0-3.
//   - org: bit 0 split, bit 1 prefetch.
//   - repl indexes fuzzPolicies; victim is the buffer's line count, 0-4.
//   - l2: bit 7 adds an L2 whose line is the L1 line shifted by bits 0-1
//     (0-2) and whose size is the largest L1 configuration shifted by
//     bits 2-3 (0-2), as RandHierGrid builds it.
//   - quantum indexes simcheck.Quanta.
type fuzzCase struct {
	seed                                 int64
	n                                    uint16
	sizes                                uint32
	line, org, repl, victim, l2, quantum uint8
}

// workload decodes the stream: at most 4096 references.
func (c fuzzCase) workload() simcheck.Workload {
	n := 1 + int(c.n)%4096
	q := simcheck.Quanta[int(c.quantum)%len(simcheck.Quanta)]
	return simcheck.Workload{
		Name:    fmt.Sprintf("synth(seed=%d,n=%d,q=%d)", c.seed, n, q),
		Refs:    simcheck.Stream(c.seed, n),
		Quantum: q,
	}
}

// grid decodes the sweep grid.
func (c fuzzCase) grid() simcheck.Grid {
	line := 4 << (c.line % 4)
	g := simcheck.Grid{
		LineSize: line,
		Split:    c.org&1 != 0,
		Prefetch: c.org&2 != 0,
		Repl:     fuzzPolicies[int(c.repl)%len(fuzzPolicies)],
		Victim:   int(c.victim % 5),
	}
	count := 1 + int(c.sizes&7)%5
	for i := 0; i < count; i++ {
		g.Sizes = append(g.Sizes, line<<((c.sizes>>(3+4*i))&15%10))
	}
	if c.l2&0x80 != 0 {
		g.L2Line = line << (c.l2 & 3 % 3)
		l1 := slices.Max(g.Sizes)
		if g.Split {
			l1 *= 2
		}
		g.L2Size = max(l1<<((c.l2>>2)&3%3), g.L2Line)
	}
	return g
}

// encodeCase is the inverse of decoding for the seed corpus: the fuzz
// input that reproduces workload w (truncated to 4096 references) under
// grid g.
func encodeCase(t testing.TB, w simcheck.Workload, g simcheck.Grid) fuzzCase {
	var seed int64
	var n, q int
	if _, err := fmt.Sscanf(w.Name, "synth(seed=%d,n=%d,q=%d)", &seed, &n, &q); err != nil {
		t.Fatalf("workload %q: %v", w.Name, err)
	}
	log2 := func(x int) int { return bits.TrailingZeros(uint(x)) }
	c := fuzzCase{
		seed:    seed,
		n:       uint16(min(n, 4096) - 1),
		sizes:   uint32(len(g.Sizes) - 1),
		line:    uint8(log2(g.LineSize) - 2),
		repl:    uint8(slices.Index(fuzzPolicies, g.Repl)),
		victim:  uint8(g.Victim),
		quantum: uint8(slices.Index(simcheck.Quanta, q)),
	}
	for i, size := range g.Sizes {
		c.sizes |= uint32(log2(size/g.LineSize)) << (3 + 4*i)
	}
	if g.Split {
		c.org |= 1
	}
	if g.Prefetch {
		c.org |= 2
	}
	if g.L2Size > 0 {
		// Raise the size shift (bits 2-3) until the decoded L2 is g's.
		c.l2 = 0x80 | uint8(log2(g.L2Line/g.LineSize))
		for size := c.grid().L2Size; size < g.L2Size; size *= 2 {
			c.l2 += 4
		}
	}
	got := c.grid()
	if sa, sb := got.Sizes, g.Sizes; !slices.Equal(sa, sb) || got.L2Size != g.L2Size ||
		got.LineSize != g.LineSize || got.Split != g.Split || got.Prefetch != g.Prefetch ||
		got.Repl != g.Repl || got.Victim != g.Victim || got.L2Line != g.L2Line {
		t.Fatalf("seed grid %+v decodes as %+v", g, got)
	}
	return c
}

// FuzzSweepMatchesOracle is the engine registry's differential lock: for a
// fuzzed stream and grid, core.RunSweep — whichever engine the registry
// selects — must equal the naive reference model (RefSystem, or
// RefHierarchy for an L2 grid) at every size, purge count included, and
// every per-run invariant must hold. The seed corpus replays the grids of
// TestEnginesConformOverRandomizedWorkloads and
// TestHierarchyEnginesConformOverRandomizedGrids.
func FuzzSweepMatchesOracle(f *testing.F) {
	add := func(c fuzzCase) {
		f.Add(c.seed, c.n, c.sizes, c.line, c.org, c.repl, c.victim, c.l2, c.quantum)
	}
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 5; trial++ {
		w := simcheck.RandWorkload(rng, 2500)
		demand := simcheck.RandGrid(rng, false)
		prefetch := demand
		prefetch.Prefetch = true
		add(encodeCase(f, w, demand))
		add(encodeCase(f, w, prefetch))
	}
	rng = rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 5; trial++ {
		w := simcheck.RandWorkload(rng, 2500)
		for _, prefetch := range []bool{false, true} {
			add(encodeCase(f, w, simcheck.RandHierGrid(rng, prefetch)))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, sizes uint32, line, org, repl, victim, l2, quantum uint8) {
		c := fuzzCase{seed, n, sizes, line, org, repl, victim, l2, quantum}
		w, g := c.workload(), c.grid()
		var ref simcheck.Engine = simcheck.ReferenceEngine{}
		if g.L2Size > 0 {
			ref = simcheck.RefHierarchyEngine{}
		}
		want := mustRun(t, ref, g, w)
		spec := sweepSpec(g, w.Quantum)
		out := runSweep(t, spec, w.Refs)
		got := &simcheck.Outcome{Engine: "registry:" + core.SelectEngine(spec).Name,
			Grid: g, Workload: w, Results: out.Results, Purges: out.Purges}
		if err := simcheck.Check(got); err != nil {
			t.Fatalf("grid %+v workload %s: %v", g, w.Name, err)
		}
		if err := simcheck.Compare(got, want); err != nil {
			t.Fatalf("grid %+v workload %s: %v", g, w.Name, err)
		}
	})
}
