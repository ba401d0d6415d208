package simcheck_test

import (
	"fmt"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/simcheck"
)

// TestParallelConformance is the time-parallel engine's registry-contract
// check on adversarial streams: across seeds, every replacement policy,
// both fetch policies, both organizations, and both plan shapes
// (purge-aligned and speculative), a parallel sweep must be bit-identical
// to the serial sweep of the same spec — down to every counter of every
// per-size result and the purge count. CI runs this un-shorted under the
// race detector (the parallel entry of the conformance job).
func TestParallelConformance(t *testing.T) {
	seeds := []int64{31, 32, 33, 34}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		refs := simcheck.Stream(seed, 30000)
		for _, repl := range cache.Replacements() {
			for _, fetch := range cache.FetchPolicies() {
				for _, split := range []bool{false, true} {
					for _, quantum := range []int{0, 3000} {
						base := core.SweepSpec{
							Sizes: []int{256, 2048, 8192}, LineSize: 16, Split: split,
							Quantum: quantum, Fetch: fetch, Repl: repl,
						}
						want := runSweep(t, base, refs)
						spec := base
						spec.Parallel = &core.ParallelOptions{
							Workers: 4, MinSegmentRefs: 2000, CheckEvery: 256,
						}
						got := runSweep(t, spec, refs)
						name := fmt.Sprintf("seed=%d %v/%v/split=%v/q=%d", seed, repl, fetch, split, quantum)
						if got.Parallel == nil {
							t.Fatalf("%s: no parallel metadata", name)
						}
						if got.Purges != want.Purges {
							t.Errorf("%s: purges %d vs %d", name, got.Purges, want.Purges)
						}
						for i := range want.Results {
							if got.Results[i] != want.Results[i] {
								t.Errorf("%s size %d: parallel diverges from serial\n got %+v\nwant %+v",
									name, want.Results[i].Size, got.Results[i], want.Results[i])
							}
						}
					}
				}
			}
		}
	}
}
