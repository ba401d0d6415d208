package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cacheeval/internal/workload"
)

// TestSweepWorkersDeterministic is the regression test for the
// Options.Workers contract: Workers=1 must give reproducible output, and any
// other worker count must give bit-identical results, because each job
// writes only its own output slot.
func TestSweepWorkersDeterministic(t *testing.T) {
	mixes := []workload.Mix{
		workload.StandardMixes()[2], // VCCOM
		workload.M68000Mix(),
	}
	base := Options{Sizes: []int{1024, 4096}, RefLimit: 5000}

	runWith := func(workers int) [][]SweepCell {
		o := base
		o.Workers = workers
		res, err := SweepMixes(o, mixes)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Cells
	}

	once := runWith(1)
	again := runWith(1)
	if !reflect.DeepEqual(once, again) {
		t.Fatal("Workers=1 sweep is not reproducible across runs")
	}
	parallel := runWith(4)
	if !reflect.DeepEqual(once, parallel) {
		t.Fatal("Workers=4 sweep differs from Workers=1")
	}
	overProvisioned := runWith(1000) // clamped to the job count by forEach
	if !reflect.DeepEqual(once, overProvisioned) {
		t.Fatal("Workers=1000 sweep differs from Workers=1")
	}
}

// optWorkers builds a defaulted Options with the given worker budget, for
// exercising the forEach pool directly.
func optWorkers(w int) Options {
	return Options{Workers: w}.withDefaults()
}

func TestForEachCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	err := optWorkers(2).forEachCtx(ctx, 1000, func(i int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}

	// Sequential path (workers=1) also stops dispatching.
	calls.Store(0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	err = optWorkers(1).forEachCtx(ctx2, 1000, func(i int) error {
		if calls.Add(1) == 3 {
			cancel2()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("sequential ran %d jobs after cancel, want 3", n)
	}
}

func TestForEachErrorPrecedence(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := optWorkers(4).forEach(10, func(i int) error {
		switch i {
		case 2:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

// TestForEachCtxStopsAfterError: once a job fails, the parallel pool stops
// dispatching, as the serial loop returns at once; a failing mix must not
// let the rest of a large grid run to completion.
func TestForEachCtxStopsAfterError(t *testing.T) {
	fail := errors.New("job 0 failed")
	var calls atomic.Int32
	err := optWorkers(2).forEachCtx(context.Background(), 1000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return fail
		}
		time.Sleep(time.Millisecond) // long enough that job 0 fails first
		return nil
	})
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want job 0's error", err)
	}
	if n := calls.Load(); n > 50 {
		t.Fatalf("%d of 1000 jobs ran after job 0 failed", n)
	}
}

func TestSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepContext(ctx, Options{Sizes: []int{1024}, RefLimit: 1000, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
