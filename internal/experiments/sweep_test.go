package experiments

import (
	"context"
	"testing"

	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// oracleCells runs one mix's whole grid the pre-one-pass way — four
// independent per-size simulations per cell, driven through the simcheck
// conformance harness so every oracle run is also invariant-checked — and
// returns one SweepCell per size. The cross-run invariants (split/unified
// conservation, the prefetch traffic floor) are asserted along the way.
func oracleCells(t *testing.T, o Options, mix workload.Mix, refs []trace.Ref) []SweepCell {
	t.Helper()
	w := simcheck.Workload{Name: mix.Name, Refs: refs, Quantum: mix.Quantum}
	variants := []struct {
		split, prefetch bool
	}{
		{true, false}, {true, true}, {false, false}, {false, true},
	}
	outs := make([]*simcheck.Outcome, len(variants))
	for i, v := range variants {
		g := simcheck.Grid{Sizes: o.Sizes, LineSize: o.LineSize, Split: v.split, Prefetch: v.prefetch}
		out, err := simcheck.Run(simcheck.SystemEngine{}, g, w)
		if err != nil {
			t.Fatalf("%s grid %+v: %v", mix.Name, g, err)
		}
		outs[i] = out
	}
	if err := simcheck.SplitUnifiedConservation(outs[0], outs[2]); err != nil {
		t.Errorf("%s: %v", mix.Name, err)
	}
	if err := simcheck.PrefetchTrafficFloor(outs[0], outs[1]); err != nil {
		t.Errorf("%s split: %v", mix.Name, err)
	}
	if err := simcheck.PrefetchTrafficFloor(outs[2], outs[3]); err != nil {
		t.Errorf("%s unified: %v", mix.Name, err)
	}
	cells := make([]SweepCell, len(o.Sizes))
	for si := range o.Sizes {
		simOut := func(o *simcheck.Outcome) SimOut {
			r := o.Results[si]
			return SimOut{Ref: r.Ref, I: r.I, D: r.D, U: r.U}
		}
		cells[si] = SweepCell{
			SplitDemand:     simOut(outs[0]),
			SplitPrefetch:   simOut(outs[1]),
			UnifiedDemand:   simOut(outs[2]),
			UnifiedPrefetch: simOut(outs[3]),
		}
	}
	return cells
}

// TestSweepMatchesClassicPerSizeRuns pins the sweep rewrite to the old
// behaviour: every cell of the grid — demand cells produced by the one-pass
// multi-size engine, prefetch cells by the fan-out engine — is bit-identical
// to four independent per-size System simulations.
func TestSweepMatchesClassicPerSizeRuns(t *testing.T) {
	o := Options{
		Sizes:    []int{32, 128, 1024, 8192},
		RefLimit: 1500,
		Workers:  3,
	}.withDefaults()
	mixes := []workload.Mix{
		workload.StandardMixes()[0],
		workload.M68000Mix(),
	}
	res, err := SweepMixesContext(context.Background(), o, mixes)
	if err != nil {
		t.Fatal(err)
	}
	for mi, mix := range mixes {
		refs, err := o.collectMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCells(t, o, mix, refs)
		for si, size := range o.Sizes {
			if got := res.Cells[mi][si]; got != want[si] {
				t.Errorf("%s @%d:\n got %+v\nwant %+v", mix.Name, size, got, want[si])
			}
		}
	}
}

// TestSweepMatchesReferenceModel drives the sweep path against the naive
// reference simulator end-to-end: SweepRefsContext runs the grid over the
// conformance generator's stream, and every cell must match the reference
// model bit-for-bit.
func TestSweepMatchesReferenceModel(t *testing.T) {
	mix := workload.StandardMixes()[0]
	refs := simcheck.Stream(77, 1200)
	o := Options{Sizes: []int{32, 256, 2048}, RefLimit: 1200, Workers: 2}.withDefaults()
	res, err := SweepRefsContext(context.Background(), o, []workload.Mix{mix}, [][]trace.Ref{refs})
	if err != nil {
		t.Fatal(err)
	}
	w := simcheck.Workload{Name: "synth", Refs: refs, Quantum: mix.Quantum}
	for _, v := range []struct {
		split, prefetch bool
		pick            func(SweepCell) SimOut
	}{
		{true, false, func(c SweepCell) SimOut { return c.SplitDemand }},
		{true, true, func(c SweepCell) SimOut { return c.SplitPrefetch }},
		{false, false, func(c SweepCell) SimOut { return c.UnifiedDemand }},
		{false, true, func(c SweepCell) SimOut { return c.UnifiedPrefetch }},
	} {
		g := simcheck.Grid{Sizes: o.Sizes, LineSize: o.LineSize, Split: v.split, Prefetch: v.prefetch}
		ref, err := simcheck.Run(simcheck.ReferenceEngine{}, g, w)
		if err != nil {
			t.Fatalf("grid %+v: %v", g, err)
		}
		for si := range o.Sizes {
			got := v.pick(res.Cells[0][si])
			r := ref.Results[si]
			want := SimOut{Ref: r.Ref, I: r.I, D: r.D, U: r.U}
			if got != want {
				t.Errorf("grid %+v size %d:\n got %+v\nwant %+v", g, o.Sizes[si], got, want)
			}
		}
	}
}

// TestSweepWorkerDeterminism is the Options.Workers contract as a simcheck
// invariant: the sweep's output is bit-identical no matter how many workers
// run it.
func TestSweepWorkerDeterminism(t *testing.T) {
	mixes := []workload.Mix{workload.StandardMixes()[0], workload.M68000Mix()}
	err := simcheck.DeterminismAcrossWorkers([]int{1, 2, 7}, func(workers int) (any, error) {
		o := Options{Sizes: []int{64, 1024}, RefLimit: 1000, Workers: workers}.withDefaults()
		res, err := SweepMixesContext(context.Background(), o, mixes)
		if err != nil {
			return nil, err
		}
		return res.Cells, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
