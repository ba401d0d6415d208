package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// cancelingSink cancels its run's context as soon as a stage ending in
// suffix starts, and counts run starts and ends.
type cancelingSink struct {
	cancel context.CancelFunc
	suffix string

	mu           sync.Mutex
	starts, ends int
}

func (s *cancelingSink) Enabled(obs.Kind) bool { return true }

func (s *cancelingSink) Observe(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case obs.KindRunStart:
		s.starts++
		if strings.HasSuffix(e.Stage, s.suffix) {
			s.cancel()
		}
	case obs.KindRunEnd:
		s.ends++
	}
}

// TestSinkStagesPairedOnCancel cancels each run (a streamed sweep, a
// per-size sweep and a single-design evaluation) the moment its stage
// opens: the run must fail with the cancellation and still close every
// stage it opened, so a consumer's per-stage state is never left dangling.
func TestSinkStagesPairedOnCancel(t *testing.T) {
	refs, mix := mixTestRefs(t, 60000)
	design := cache.SystemConfig{
		Unified:       cache.Config{Size: 2048, LineSize: 16},
		PurgeInterval: 2500,
	}
	sweep := func(repl cache.Replacement) func(ctx context.Context, sink obs.Sink) error {
		spec := SweepSpec{Sizes: []int{256, 1024, 4096}, LineSize: 16, Quantum: mix.Quantum, Repl: repl}
		return func(ctx context.Context, sink obs.Sink) error {
			_, err := RunSweep(ctx, spec, trace.NewSliceReader(refs), sink, "test", int64(len(refs)))
			return err
		}
	}
	for _, tc := range []struct {
		name, suffix string
		run          func(ctx context.Context, sink obs.Sink) error
	}{
		{"streamed-sweep", "test", sweep(cache.LRU)},
		{"persize-sweep", "test:256", sweep(cache.ARC)},
		{"evaluate", "simulate:w", func(ctx context.Context, sink obs.Sink) error {
			_, err := EvaluateRefsContext(obs.WithSink(ctx, sink), design, "w", refs)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelingSink{cancel: cancel, suffix: tc.suffix}
			if err := tc.run(ctx, sink); !errors.Is(err, context.Canceled) {
				t.Fatalf("run error = %v, want context.Canceled", err)
			}
			if sink.starts == 0 || sink.starts != sink.ends {
				t.Fatalf("%d run starts but %d run ends", sink.starts, sink.ends)
			}
		})
	}
}
