package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// TestSelectEngineTable pins the engine chosen for every (fetch,
// replacement) pair. Changing this table means changing which engine runs
// production sweeps — it must be a deliberate, reviewed decision.
func TestSelectEngineTable(t *testing.T) {
	want := func(fetch cache.FetchPolicy, repl cache.Replacement) string {
		switch {
		case fetch == cache.DemandFetch && repl == cache.LRU:
			return "multisystem"
		case fetch == cache.PrefetchAlways && repl == cache.LRU:
			return "fanout"
		default:
			return "persize"
		}
	}
	for _, fetch := range cache.FetchPolicies() {
		for _, repl := range cache.Replacements() {
			spec := SweepSpec{
				Sizes: []int{256, 1024}, LineSize: 16,
				Quantum: 1000, Fetch: fetch, Repl: repl,
			}
			got := SelectEngine(spec).Name
			if w := want(fetch, repl); got != w {
				t.Errorf("SelectEngine(%v, %v) = %q, want %q", fetch, repl, got, w)
			}
			// A positive error budget opts any spec into the sampled
			// engine (which carries its own exact-fallback escape hatch);
			// a zero budget is the exact-degrade contract and must not
			// change the selection.
			spec.Sampled = &SampledOptions{ErrorBudget: 0.02}
			if got := SelectEngine(spec).Name; got != "sampled" {
				t.Errorf("SelectEngine(%v, %v, budget 0.02) = %q, want sampled", fetch, repl, got)
			}
			spec.Sampled = &SampledOptions{}
			if got := SelectEngine(spec).Name; got != want(fetch, repl) {
				t.Errorf("SelectEngine(%v, %v, budget 0) = %q, want %q", fetch, repl, got, want(fetch, repl))
			}
			// A victim buffer breaks stack inclusion (the buffer's contents
			// depend on the size-varying eviction stream), so victim sweeps
			// must run per size — never on a stack engine.
			spec.Sampled = nil
			spec.Victim = 4
			if got := SelectEngine(spec).Name; got != "persize" {
				t.Errorf("SelectEngine(%v, %v, victim 4) = %q, want persize", fetch, repl, got)
			}
			// Any L2 routes to the per-size engine — victim or not — and
			// never to a stack engine: the L2's input stream changes with L1
			// size, so stack inclusion cannot hold across levels.
			spec.L2 = &L2Spec{Size: 1 << 20}
			if got := SelectEngine(spec).Name; got != "persize" {
				t.Errorf("SelectEngine(%v, %v, victim+L2) = %q, want persize", fetch, repl, got)
			}
			spec.Victim = 0
			if got := SelectEngine(spec).Name; got != "persize" {
				t.Errorf("SelectEngine(%v, %v, L2) = %q, want persize", fetch, repl, got)
			}
		}
	}
}

// TestInclusionBreakingNeverStackSimulated is the registry's safety
// regression: no configuration that breaks Mattson stack inclusion may
// ever route to a stack-simulation engine. The one-pass engines simulate
// LRU internally, so routing, say, an ARC sweep to them would silently
// return LRU numbers under an ARC label.
func TestInclusionBreakingNeverStackSimulated(t *testing.T) {
	for _, fetch := range cache.FetchPolicies() {
		for _, repl := range cache.Replacements() {
			spec := SweepSpec{
				Sizes: []int{512}, LineSize: 16,
				Quantum: 500, Fetch: fetch, Repl: repl,
			}
			name := SelectEngine(spec).Name
			if repl != cache.LRU && name != "persize" {
				t.Errorf("non-LRU spec (%v, %v) routed to %q", fetch, repl, name)
			}
			if spec.StackInclusion() && !(fetch == cache.DemandFetch && repl == cache.LRU) {
				t.Errorf("StackInclusion claims (%v, %v) is inclusion-safe", fetch, repl)
			}
		}
	}
	// The selection order invariant behind the table: every engine ahead of
	// the fallback must reject inclusion-breaking specs.
	engines := Engines()
	var names []string
	for _, e := range engines {
		names = append(names, e.Name)
	}
	if want := []string{"sampled", "multisystem", "fanout", "persize"}; !slices.Equal(names, want) {
		t.Fatalf("Engines() = %v, want %v", names, want)
	}
	broken := SweepSpec{Sizes: []int{512}, LineSize: 16, Fetch: cache.DemandFetch, Repl: cache.ARC}
	for _, e := range engines[:len(engines)-1] {
		if e.Supports(broken) {
			t.Errorf("engine %q claims support for an inclusion-breaking spec", e.Name)
		}
	}
	// The same order invariant for the inclusion-breaking extensions: a
	// victim buffer or an L2 is only ever served by the fallback.
	for _, spec := range []SweepSpec{
		{Sizes: []int{512}, LineSize: 16, Victim: 2},
		{Sizes: []int{512}, LineSize: 16, L2: &L2Spec{Size: 4096}},
	} {
		for _, e := range engines[:len(engines)-1] {
			if e.Supports(spec) {
				t.Errorf("engine %q claims support for victim %d, L2 %v", e.Name, spec.Victim, spec.L2)
			}
		}
		if got := SelectEngine(spec).Name; got != "persize" {
			t.Errorf("victim %d, L2 %v selected %q, want persize", spec.Victim, spec.L2, got)
		}
	}
}

// TestRunSweepMatchesPerSize checks the registry's core promise on a real
// stream: whatever engine RunSweep selects, the results are bit-identical
// to forcing the universal per-size fallback.
func TestRunSweepMatchesPerSize(t *testing.T) {
	spec1, err := workload.ByName("VTEKOFF")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "VTEKOFF", Specs: []workload.Spec{spec1}, Quantum: 3000}
	rd, err := mix.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(trace.NewLimitReader(rd, 12000), 0, 12000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fetch cache.FetchPolicy
		split bool
	}{
		{"demand-unified", cache.DemandFetch, false},
		{"demand-split", cache.DemandFetch, true},
		{"prefetch-unified", cache.PrefetchAlways, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := SweepSpec{
				Sizes: []int{256, 1024, 4096}, LineSize: 16, Split: tc.split,
				Quantum: mix.Quantum, Fetch: tc.fetch, Repl: cache.LRU,
			}
			if SelectEngine(spec).Name == "persize" {
				t.Fatalf("spec unexpectedly selects the fallback; comparison is vacuous")
			}
			gotOut, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, err := perSizeEngine.Run(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
			if err != nil {
				t.Fatal(err)
			}
			got, want := gotOut.Results, wantOut.Results
			if gotOut.Purges != wantOut.Purges {
				t.Errorf("purges: selected=%d persize=%d", gotOut.Purges, wantOut.Purges)
			}
			if gotOut.Sampled != nil || wantOut.Sampled != nil {
				t.Error("exact engines must not report sampling metadata")
			}
			if len(got) != len(want) {
				t.Fatalf("result lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("size %d: selected engine %+v\npersize %+v", got[i].Size, got[i], want[i])
				}
			}
		})
	}
}

// TestRunSweepHierarchy drives a two-level sweep through the registry on a
// real stream and checks the L2 block is populated, coherent with the L1
// counters at every size, and distinct across L1 sizes (the L1-filtered
// stream really changes).
func TestRunSweepHierarchy(t *testing.T) {
	spec1, err := workload.ByName("VTEKOFF")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "VTEKOFF", Specs: []workload.Spec{spec1}, Quantum: 3000}
	rd, err := mix.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(trace.NewLimitReader(rd, 12000), 0, 12000)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Sizes: []int{256, 1024}, LineSize: 16, Quantum: mix.Quantum,
		Victim: 2, L2: &L2Spec{Size: 16384, LineSize: 32},
	}
	out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results", len(out.Results))
	}
	for _, r := range out.Results {
		if r.H.Ev.Fetches == 0 || r.H.U.Accesses == 0 {
			t.Fatalf("size %d: empty L2 block %+v", r.Size, r.H)
		}
		if r.H.Ev.Fetches != r.U.DemandFetches+r.U.PrefetchFetches {
			t.Fatalf("size %d: L2 fetch events %d != L1 line fetches %d",
				r.Size, r.H.Ev.Fetches, r.U.DemandFetches+r.U.PrefetchFetches)
		}
		if r.U.VictimHits == 0 {
			t.Fatalf("size %d: victim buffer never hit on this stream", r.Size)
		}
	}
	if out.Results[0].H.Ev == out.Results[1].H.Ev {
		t.Fatal("identical L2 event counts across L1 sizes — the filtered stream did not change")
	}
}

// TestEvaluateHierarchyContext checks the generator-fed two-level
// evaluation against the registry's per-size hierarchy engine run over the
// same stream, materialized: the reference-level view, the memory
// interface and the L2 block must all agree.
func TestEvaluateHierarchyContext(t *testing.T) {
	spec1, err := workload.ByName("VTEKOFF")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{Name: "VTEKOFF", Specs: []workload.Spec{spec1}, Quantum: 3000}
	hc := cache.HierarchyConfig{
		L1: cache.SystemConfig{Unified: cache.Config{Size: 256, LineSize: 16, VictimLines: 2}, PurgeInterval: mix.Quantum},
		L2: cache.Config{Size: 2048, LineSize: 32},
	}
	rep, err := EvaluateHierarchyContext(context.Background(), hc, mix, 12000)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := mix.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(trace.NewLimitReader(rd, 12000), 0, 12000)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Sizes: []int{256}, LineSize: 16, Quantum: mix.Quantum,
		Victim: 2, L2: &L2Spec{Size: 2048, LineSize: 32},
	}
	out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := out.Results[0]
	h := rep.Hierarchy
	if h == nil || h.L2Design != hc.L2 {
		t.Fatalf("hierarchy block %+v, want one for L2 %+v", h, hc.L2)
	}
	if rep.Refs != 12000 || rep.MissRatio != r.Ref.MissRatio() || rep.VictimHits != r.U.VictimHits ||
		rep.BytesFromMemory != r.H.U.BytesFromMemory || rep.BytesToMemory != r.H.U.BytesToMemory ||
		h.L2Fetches != r.H.Ev.Fetches || h.L2FetchMisses != r.H.Ev.FetchMisses ||
		h.L2Writes != r.H.Ev.Writes || h.L2WriteMisses != r.H.Ev.WriteMisses {
		t.Errorf("generator-fed hierarchy report %+v (L2 %+v) disagrees with the registry's %+v", rep, *h, r)
	}
}

// TestPerSizeEngineHierarchyMatchesFresh checks the per-size engine on L2
// specs: every size's result, the L2 block (SizeResult.H) included, equals
// an independent cache.Hierarchy built fresh for that size, so the L2 the
// engine builds once and resets between sizes carries nothing over.
func TestPerSizeEngineHierarchyMatchesFresh(t *testing.T) {
	refs, mix := sampledTestRefs(t, 12000)
	for _, spec := range []SweepSpec{
		{Sizes: []int{256, 1024, 4096}, LineSize: 16, Quantum: mix.Quantum, L2: &L2Spec{Size: 16384, LineSize: 32}},
		{Sizes: []int{512, 2048}, LineSize: 16, Split: true, Quantum: mix.Quantum, Repl: cache.ARC, Victim: 2,
			L2: &L2Spec{Size: 8192, Assoc: 4}},
	} {
		out, err := perSizeEngine.Run(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range spec.Sizes {
			h, err := cache.NewHierarchy(spec.hierarchyConfig(size))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Run(trace.NewSliceReader(refs), 0); err != nil {
				t.Fatal(err)
			}
			want := h.SizeResult(size)
			if got := out.Results[i]; got != want {
				t.Errorf("L2 %+v size %d:\nengine %+v\nfresh  %+v", *spec.L2, size, got, want)
			}
			if out.Results[i].H.Ev.Fetches == 0 || out.Results[i].H.U.Accesses == 0 {
				t.Errorf("L2 %+v size %d: empty L2 block", *spec.L2, size)
			}
		}
	}
}

// TestPerSizeEngineBorrowsStream pins the per-size engine's allocation
// budget: on a materialized stream it borrows the references instead of
// copying them, and each size's simulator draws the arrays the previous
// size released, so a whole sweep allocates less than one
// 16-byte-per-reference copy of its input.
func TestPerSizeEngineBorrowsStream(t *testing.T) {
	const n = 200000
	refs, mix := sampledTestRefs(t, n)
	for _, spec := range []SweepSpec{
		{Sizes: []int{256, 512, 1024, 2048}, LineSize: 16, Quantum: mix.Quantum, Repl: cache.ARC},
		{Sizes: []int{256, 512, 1024, 2048}, LineSize: 16, Quantum: mix.Quantum, Victim: 4,
			L2: &L2Spec{Size: 64 << 10}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", n); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16*n {
			t.Errorf("repl %v, L2 %v: sweep allocated %d bytes, want < %d (one copy of the stream)",
				spec.Repl, spec.L2, got, 16*n)
		}
	}
}

// TestRunSweepValidates checks that a malformed spec is rejected before any
// engine runs.
func TestRunSweepValidates(t *testing.T) {
	bad := []SweepSpec{
		{},                               // no sizes
		{Sizes: []int{128}, LineSize: 3}, // non-power-of-two line
		{Sizes: []int{128}, LineSize: 16, Repl: 9}, // out-of-range policy
		{Sizes: []int{128}, LineSize: 16, Sampled: &SampledOptions{ErrorBudget: -0.1}},
		{Sizes: []int{128}, LineSize: 16, Sampled: &SampledOptions{ErrorBudget: math.NaN()}},
		{Sizes: []int{128}, LineSize: 16, Sampled: &SampledOptions{ErrorBudget: 1}},
		{Sizes: []int{128}, LineSize: 16, Sampled: &SampledOptions{ErrorBudget: 0.02, Confidence: 1.5}},
		{Sizes: []int{128}, LineSize: 16, Victim: -1},                       // negative buffer
		{Sizes: []int{128}, LineSize: 16, Victim: 1 << 20},                  // absurd buffer
		{Sizes: []int{4096}, LineSize: 16, L2: &L2Spec{Size: 512}},          // inverted hierarchy: L2 < L1
		{Sizes: []int{128}, LineSize: 16, L2: &L2Spec{Size: 0}},             // empty L2
		{Sizes: []int{128}, LineSize: 16, L2: &L2Spec{Size: 515}},           // non-power-of-two L2
		{Sizes: []int{128}, LineSize: 16, L2: &L2Spec{Size: 512, Assoc: 3}}, // bad associativity
		{Sizes: []int{128}, LineSize: 16, Victim: 2, Sampled: &SampledOptions{ErrorBudget: 0.02}},
		{Sizes: []int{128}, LineSize: 16, L2: &L2Spec{Size: 512}, Sampled: &SampledOptions{ErrorBudget: 0.02}},
	}
	for i, spec := range bad {
		if _, err := RunSweep(context.Background(), spec, trace.NewSliceReader(nil), nil, "test", 0); err == nil {
			t.Errorf("spec %d: RunSweep accepted invalid spec %+v", i, spec)
		}
	}
}
