package core

// Sink conformance of the one-pass sweep engines. Their events come from
// RunSweep's stream driver, not from the engines, so the engines are
// pinned here, through the path every sweep takes.

import (
	"context"
	"reflect"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// sinkSpecs are the sweep specs that select the one-pass engines, by the
// engine's type name.
func sinkSpecs(quantum int) map[string]SweepSpec {
	sizes := []int{256, 1024, 8192}
	return map[string]SweepSpec{
		"MultiSystem":  {Sizes: sizes, LineSize: 16, Split: true, Quantum: quantum},
		"FanoutSystem": {Sizes: sizes, LineSize: 16, Quantum: quantum, Fetch: cache.PrefetchAlways},
	}
}

// TestProbeLeavesSweepEnginesBitIdentical: installing obs.Discard or a
// recording sink leaves a one-pass sweep's results bit-identical to a run
// without one.
func TestProbeLeavesSweepEnginesBitIdentical(t *testing.T) {
	refs := simcheck.Stream(42, obs.ProgressInterval+5000)
	for name, spec := range sinkSpecs(20000) {
		run := func(sink obs.Sink) SweepOut {
			out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), sink, "probe", int64(len(refs)))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		bare := run(nil)
		if got := run(obs.Discard); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: Discard changed results", name)
		}
		if got := run(&eventLog{}); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: recording sink changed results", name)
		}
	}
}
