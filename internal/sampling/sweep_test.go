package sampling_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/sampling"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

func mustMulti(t *testing.T, sizes []int, split bool) *cache.MultiSystem {
	t.Helper()
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16, Split: split})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func mustSystems(t *testing.T, sizes []int, fetch cache.FetchPolicy, repl cache.Replacement) *sampling.Systems {
	t.Helper()
	cfgs := make([]cache.SystemConfig, len(sizes))
	for i, size := range sizes {
		cfgs[i] = cache.SystemConfig{
			Unified: cache.Config{Size: size, LineSize: 16, Fetch: fetch, Repl: repl},
		}
	}
	g, err := sampling.NewSystems(sizes, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanValidate(t *testing.T) {
	good := sampling.Plan{Window: 100, Period: 1000, Warmup: 25}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []sampling.Plan{
		{Window: 0, Period: 1000},
		{Window: 100, Period: 100},               // no gap
		{Window: 200, Period: 100},               // window exceeds period
		{Window: 100, Period: 1000, Warmup: 100}, // warmup swallows the window
		{Window: 100, Period: 1000, Warmup: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) should be invalid", i, p)
		}
	}
}

func TestPlanFor(t *testing.T) {
	p, ok := sampling.PlanFor(100000, 0.1, 128, 0.25)
	if !ok {
		t.Fatal("expected a valid plan")
	}
	if p.Window != 128 || p.Period != 1280 || p.Warmup != 32 {
		t.Errorf("plan = %+v", p)
	}
	// 78 full periods plus a 160-ref remainder that still fits one full
	// 128-ref window.
	if got := p.Windows(100000); got != 79 {
		t.Errorf("windows = %d, want 79", got)
	}
	// Too short for MinWindows full windows.
	if _, ok := sampling.PlanFor(2000, 0.1, 128, 0.25); ok {
		t.Error("2000 refs at fraction 0.1 should have no valid plan")
	}
	// Degenerate fractions.
	for _, f := range []float64{0, 1, 1.5, -0.1} {
		if _, ok := sampling.PlanFor(100000, f, 128, 0.25); ok {
			t.Errorf("fraction %v should have no valid plan", f)
		}
	}
}

// TestDriveSweepEngineAgreement is the sampled analogue of the registry's
// equivalence promise: driving MultiSystem and per-size Systems through the
// identical plan must produce identical per-size estimates, including the
// purge schedule.
func TestDriveSweepEngineAgreement(t *testing.T) {
	refs := simcheck.Stream(21, 40000)
	sizes := []int{64, 1024, 256}
	plan := sampling.Plan{Window: 128, Period: 1280, Warmup: 32}
	const quantum = 900

	ms := mustMulti(t, sizes, false)
	a, err := plan.DriveSweep(trace.NewSliceReader(refs), ms, len(sizes), quantum, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	gs := mustSystems(t, sizes, cache.DemandFetch, cache.LRU)
	b, err := plan.DriveSweep(trace.NewSliceReader(refs), gs, len(sizes), quantum, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multisystem estimate:\n%+v\npersize estimate:\n%+v", a, b)
	}
	if ms.Purges() != gs.Purges() || ms.Purges() == 0 {
		t.Errorf("purge counts: multi=%d persize=%d (want equal, nonzero)", ms.Purges(), gs.Purges())
	}
	if a.Windows != plan.Windows(len(refs)) {
		t.Errorf("windows = %d, want %d", a.Windows, plan.Windows(len(refs)))
	}
	wantCounted := uint64(a.Windows * (plan.Window - plan.Warmup))
	if a.CountedRefs != wantCounted {
		t.Errorf("counted refs = %d, want %d", a.CountedRefs, wantCounted)
	}
	for si := range a.PerSize {
		if got := a.PerSize[si].Ref.TotalRefs(); got != wantCounted {
			t.Errorf("size %d: counted refs %d != %d", sizes[si], got, wantCounted)
		}
	}
}

// TestDriveSweepPartialWindowDiscarded pins the full-windows-only rule: a
// trailing partial window is simulated but contributes nothing.
func TestDriveSweepPartialWindowDiscarded(t *testing.T) {
	plan := sampling.Plan{Window: 100, Period: 500, Warmup: 20}
	total := 2*plan.Period + plan.Window - 1 // two full windows + one partial
	refs := simcheck.Stream(5, total)
	ms := mustMulti(t, []int{256}, false)
	est, err := plan.DriveSweep(trace.NewSliceReader(refs), ms, 1, 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Windows != 2 {
		t.Errorf("windows = %d, want 2", est.Windows)
	}
	if est.TotalRefs != uint64(total) {
		t.Errorf("total refs = %d, want %d", est.TotalRefs, total)
	}
	// Simulated: two full windows plus the partial window's refs.
	wantSim := uint64(2*plan.Window + plan.Window - 1)
	if est.SimulatedRefs != wantSim {
		t.Errorf("simulated refs = %d, want %d", est.SimulatedRefs, wantSim)
	}
	if est.CountedRefs != uint64(2*(plan.Window-plan.Warmup)) {
		t.Errorf("counted refs = %d", est.CountedRefs)
	}
}

// TestControllerMeetsLooseBudget: with a generous budget the first round
// must succeed and report a usable interval.
func TestControllerMeetsLooseBudget(t *testing.T) {
	refs := simcheck.Stream(31, 60000)
	sizes := []int{64, 256}
	ctrl := sampling.Controller{RelErrBudget: 1.0, Quantum: 2000}
	out, err := ctrl.Run(len(refs), len(sizes),
		func() trace.Reader { return trace.NewSliceReader(refs) },
		func() (sampling.Target, error) { return mustMulti(t, sizes, false), nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.FellBack {
		t.Fatalf("fell back: %s", out.Reason)
	}
	if len(out.Attempts) != 1 {
		t.Errorf("attempts = %d, want 1", len(out.Attempts))
	}
	if out.Achieved > 1.0 || math.IsInf(out.Achieved, 1) {
		t.Errorf("achieved = %v", out.Achieved)
	}
	if out.Est == nil || out.Target == nil {
		t.Fatal("successful outcome must carry estimate and target")
	}
	for si, e := range out.Est.PerSize {
		if !e.CI.Contains(e.MissRatio) {
			t.Errorf("size %d: CI [%v, %v] does not contain point estimate %v",
				sizes[si], e.CI.Lo, e.CI.Hi, e.MissRatio)
		}
	}
}

// TestControllerFallsBackOnShortTrace: too few references for any plan.
func TestControllerFallsBackOnShortTrace(t *testing.T) {
	refs := simcheck.Stream(7, 2000)
	ctrl := sampling.Controller{RelErrBudget: 0.02}
	out, err := ctrl.Run(len(refs), 1,
		func() trace.Reader { return trace.NewSliceReader(refs) },
		func() (sampling.Target, error) { return mustMulti(t, []int{256}, false), nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FellBack || out.Reason == "" {
		t.Fatalf("expected fallback with reason, got %+v", out)
	}
	if len(out.Attempts) != 0 {
		t.Errorf("no rounds should have run, got %d", len(out.Attempts))
	}
}

// TestControllerFallsBackOnImpossibleBudget: an absurd budget must grow
// through rounds and then give up rather than loop or lie.
func TestControllerFallsBackOnImpossibleBudget(t *testing.T) {
	refs := simcheck.Stream(9, 50000)
	ctrl := sampling.Controller{RelErrBudget: 1e-6}
	out, err := ctrl.Run(len(refs), 1,
		func() trace.Reader { return trace.NewSliceReader(refs) },
		func() (sampling.Target, error) { return mustMulti(t, []int{256}, false), nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FellBack {
		t.Fatalf("budget 1e-6 cannot be met by sampling, got achieved %v", out.Achieved)
	}
	if len(out.Attempts) == 0 {
		t.Error("at least one round should have been attempted")
	}
}

// TestControllerRejectsZeroBudget: a zero or negative budget is a caller
// bug at this layer (the engine registry routes budget 0 to exact engines).
func TestControllerRejectsZeroBudget(t *testing.T) {
	ctrl := sampling.Controller{}
	if _, err := ctrl.Run(10000, 1,
		func() trace.Reader { return trace.NewSliceReader(nil) },
		func() (sampling.Target, error) { return mustMulti(t, []int{256}, false), nil },
	); err == nil {
		t.Fatal("zero budget must error")
	}
}

// TestEstimateContextDeadline: a deadline on the reader (a
// trace.ContextReader) is honoured mid-window, not just between estimates.
func TestEstimateContextDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := cache.SystemConfig{Unified: cache.Config{Size: 1024, LineSize: 16}}
	ts := sampling.TimeSampler{Window: 5000, Period: 10000, Warmup: 100}
	refs := simcheck.Stream(3, 30000)
	guarded := func(ctx context.Context) trace.Reader {
		return trace.NewContextReader(ctx, trace.NewSliceReader(refs))
	}
	if _, err := ts.Estimate(guarded(ctx), sc); !errors.Is(err, context.Canceled) {
		t.Errorf("TimeSampler: err = %v, want context.Canceled", err)
	}
	ss := sampling.SetSampler{Bits: 2}
	if _, err := ss.Estimate(guarded(ctx), sc); !errors.Is(err, context.Canceled) {
		t.Errorf("SetSampler: err = %v, want context.Canceled", err)
	}
	// A live context with a real deadline also aborts a long run.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	if _, err := ts.Estimate(guarded(dctx), sc); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestDriveSweepSkipperAgreement pins the O(1) gap-skip fast path (with its
// arithmetic purge replay) against per-reference reading: the same plan over
// the same trace must produce bit-identical estimates and purge counts
// whether or not the reader can Skip. The quantum is chosen so purges land
// inside skipped gaps, exercising the replay arithmetic.
func TestDriveSweepSkipperAgreement(t *testing.T) {
	refs := simcheck.Stream(17, 40000)
	sizes := []int{64, 512}
	plan := sampling.Plan{Window: 128, Period: 1280, Warmup: 32}
	const quantum = 900

	fast := mustMulti(t, sizes, false)
	a, err := plan.DriveSweep(trace.NewSliceReader(refs), fast, len(sizes), quantum, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	slow := mustMulti(t, sizes, false)
	inner := trace.NewSliceReader(refs)
	b, err := plan.DriveSweep(trace.ReaderFunc(inner.Read), slow, len(sizes), quantum, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("skipper estimate:\n%+v\nper-read estimate:\n%+v", a, b)
	}
	if fast.Purges() != slow.Purges() || fast.Purges() == 0 {
		t.Errorf("purge counts: skipper=%d per-read=%d (want equal, nonzero)", fast.Purges(), slow.Purges())
	}
}

// TestControllerAlignedPlan: under AlignRefs the schedule must start every
// window on a cycle boundary — the period a multiple of the cycle — with no
// warm-up, and a WindowRefs that is not a multiple of the cycle must refuse
// to plan rather than silently misalign.
func TestControllerAlignedPlan(t *testing.T) {
	const cycle = 1000
	refs := simcheck.Stream(13, 200000)
	ctrl := sampling.Controller{
		RelErrBudget: 1.0, Quantum: cycle,
		WindowRefs: cycle, AlignRefs: cycle,
	}
	out, err := ctrl.Run(len(refs), 1,
		func() trace.Reader { return trace.NewSliceReader(refs) },
		func() (sampling.Target, error) { return mustMulti(t, []int{256}, false), nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.FellBack {
		t.Fatalf("fell back: %s", out.Reason)
	}
	plan := out.Attempts[0].Plan
	if plan.Window != cycle {
		t.Errorf("window = %d, want the cycle %d", plan.Window, cycle)
	}
	if plan.Period%cycle != 0 || plan.Period <= plan.Window {
		t.Errorf("period = %d, want a multiple of %d with a gap", plan.Period, cycle)
	}
	if plan.Warmup != 0 {
		t.Errorf("warmup = %d, want 0: aligned windows start at a purge boundary", plan.Warmup)
	}

	misaligned := sampling.Controller{RelErrBudget: 1.0, WindowRefs: 1500, AlignRefs: cycle}
	out, err = misaligned.Run(len(refs), 1,
		func() trace.Reader { return trace.NewSliceReader(refs) },
		func() (sampling.Target, error) { return mustMulti(t, []int{256}, false), nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.FellBack {
		t.Error("a window that is not a multiple of AlignRefs must fall back")
	}
}
