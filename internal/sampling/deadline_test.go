package sampling_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/sampling"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

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
