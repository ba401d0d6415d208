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

// TestSinkStagesPairedOnCancel cancels each sampled run (sweep and
// single-design) the moment its stage opens: the
// run must fail with the cancellation and still close every stage it
// opened, so a consumer's per-stage state is never left dangling.
func TestSinkStagesPairedOnCancel(t *testing.T) {
	sampRefs, mix := sampledTestRefs(t, 60000)
	design := cache.SystemConfig{
		Unified:       cache.Config{Size: 2048, LineSize: 16},
		PurgeInterval: 2500,
	}
	sampSpec := SweepSpec{
		Sizes: []int{256, 1024, 4096}, LineSize: 16, Quantum: mix.Quantum,
		Fetch: cache.DemandFetch, Repl: cache.LRU, Sampled: &SampledOptions{ErrorBudget: 0.9},
	}
	for _, tc := range []struct {
		name, suffix string
		run          func(ctx context.Context, sink obs.Sink) error
	}{
		{"sampled-sweep", ":sampled", func(ctx context.Context, sink obs.Sink) error {
			_, err := RunSweep(ctx, sampSpec, trace.NewSliceReader(sampRefs), sink, "test", int64(len(sampRefs)))
			return err
		}},
		{"sampled-evaluate", ":sampled", func(ctx context.Context, sink obs.Sink) error {
			_, _, _, err := EvaluateSampledRefsContext(obs.WithSink(ctx, sink), design, "w", sampRefs,
				&SampledOptions{ErrorBudget: 0.9})
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
