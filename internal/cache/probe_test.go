package cache_test

// Sink conformance: installing an event sink — obs.Discard or a real
// recording one — must leave every engine's results bit-identical to an
// uninstrumented run. The sink's only interaction with an engine is
// observing its progress; any divergence means instrumentation leaked into
// simulation state. The one-pass sweep engines take no sink: their events
// come from core.RunSweep, whose tests pin them.

import (
	"sync/atomic"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// countingSink records run lifecycle event counts and the final reference
// total.
type countingSink struct {
	starts, progresses, ends atomic.Int64
	lastRefs                 atomic.Int64
	total                    atomic.Int64
}

func (p *countingSink) Enabled(k obs.Kind) bool {
	return k == obs.KindRunStart || k == obs.KindProgress || k == obs.KindRunEnd
}

func (p *countingSink) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindRunStart:
		p.starts.Add(1)
		p.total.Store(e.Total)
	case obs.KindProgress:
		p.progresses.Add(1)
	case obs.KindRunEnd:
		p.ends.Add(1)
		p.lastRefs.Store(e.Refs)
	}
}

// probeStream is long enough to cross obs.ProgressInterval so the progress
// event path is exercised, not just start/end.
func probeStream(t *testing.T) []trace.Ref {
	t.Helper()
	n := obs.ProgressInterval + 5000
	if testing.Short() {
		n = obs.ProgressInterval + 500
	}
	return simcheck.Stream(42, n)
}

func TestProbeLeavesSystemBitIdentical(t *testing.T) {
	refs := probeStream(t)
	run := func(p obs.Sink) (cache.RefStats, cache.Stats, uint64) {
		sys, err := cache.NewSystem(cache.SystemConfig{
			Unified:       cache.Config{Size: 4096, LineSize: 16, Fetch: cache.PrefetchAlways},
			PurgeInterval: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			sys.SetSink(p, "test", int64(len(refs)))
		}
		if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
		return sys.RefStats(), sys.Stats(), sys.RefBytes()
	}
	bareRef, bareStats, bareBytes := run(nil)
	for name, p := range map[string]obs.Sink{"nop": obs.Discard, "counting": &countingSink{}} {
		gotRef, gotStats, gotBytes := run(p)
		if gotRef != bareRef || gotStats != bareStats || gotBytes != bareBytes {
			t.Errorf("%s sink changed System results:\n got %+v %+v %d\nwant %+v %+v %d",
				name, gotRef, gotStats, gotBytes, bareRef, bareStats, bareBytes)
		}
	}
}

func TestProbeCallbacks(t *testing.T) {
	refs := probeStream(t)
	p := &countingSink{}
	sys, err := cache.NewSystem(cache.SystemConfig{Unified: cache.Config{Size: 1024, LineSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetSink(p, "system", int64(len(refs)))
	n, err := sys.Run(trace.NewSliceReader(refs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.starts.Load() != 1 || p.ends.Load() != 1 {
		t.Errorf("starts=%d ends=%d, want 1/1", p.starts.Load(), p.ends.Load())
	}
	if p.total.Load() != int64(len(refs)) {
		t.Errorf("total=%d, want %d", p.total.Load(), len(refs))
	}
	if p.lastRefs.Load() != int64(n) {
		t.Errorf("RunEnd refs=%d, want %d", p.lastRefs.Load(), n)
	}
	if want := int64(len(refs) / obs.ProgressInterval); p.progresses.Load() != want {
		t.Errorf("progress events=%d, want %d", p.progresses.Load(), want)
	}
}

// engine is the surface of the engines with a Run loop.
type engine interface {
	SetSink(s obs.Sink, stage string, totalRefs int64)
	Run(rd trace.Reader, max int) (int, error)
}

// runAllocs reports the allocations of one Run over refs on an engine
// already warmed by an identical run, with sink installed.
func runAllocs(t *testing.T, build func() (engine, error), sink obs.Sink, refs []trace.Ref) float64 {
	t.Helper()
	e, err := build()
	if err != nil {
		t.Fatal(err)
	}
	e.SetSink(sink, "allocs", int64(len(refs)))
	return testing.AllocsPerRun(1, func() {
		if _, err := e.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
	})
}

// causeSink is Enabled for every kind, so installing it switches on 3C
// attribution.
type causeSink struct{}

func (causeSink) Observe(obs.Event)     {}
func (causeSink) Enabled(obs.Kind) bool { return true }

// TestSinkAllocsPerRun pins the allocation profile of the engines with a
// Run loop (core pins the one-pass sweep engines through RunSweep): a
// warmed Run allocates the same at N and 4N references — nothing grows per
// reference — whether no sink or obs.Discard is installed, and Discard
// allocates exactly as much as no sink, so it leaves the 3C tracker off. A
// sink Enabled for obs.KindMissCauses does switch the tracker on, and its
// per-reference allocations show at 4N, which keeps the pin honest.
func TestSinkAllocsPerRun(t *testing.T) {
	n := obs.ProgressInterval + 5000
	short, long := simcheck.Stream(7, n), simcheck.Stream(7, 4*n)
	const purge = 20000
	l1 := cache.SystemConfig{Unified: cache.Config{Size: 4096, LineSize: 16}, PurgeInterval: purge}
	engines := []struct {
		name  string
		build func() (engine, error)
	}{
		{"System", func() (engine, error) { return cache.NewSystem(l1) }},
		{"Hierarchy", func() (engine, error) {
			return cache.NewHierarchy(cache.HierarchyConfig{L1: l1, L2: cache.Config{Size: 16384, LineSize: 16}})
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			bareN, bare4N := runAllocs(t, eng.build, nil, short), runAllocs(t, eng.build, nil, long)
			discN, disc4N := runAllocs(t, eng.build, obs.Discard, short), runAllocs(t, eng.build, obs.Discard, long)
			t.Logf("allocs per Run: nil %v/%v, Discard %v/%v (N/4N)", bareN, bare4N, discN, disc4N)
			if bareN != bare4N || discN != disc4N {
				t.Errorf("allocations grow with the stream: nil %v→%v, Discard %v→%v", bareN, bare4N, discN, disc4N)
			}
			if discN != bareN {
				t.Errorf("Discard allocates %v per Run, no sink %v", discN, bareN)
			}
		})
	}
	build := func() (engine, error) { return cache.NewSystem(l1) }
	if a, b := runAllocs(t, build, causeSink{}, short), runAllocs(t, build, causeSink{}, long); b <= a {
		t.Errorf("3C tracker: %v allocs per Run at %d refs, %v at %d; the pin cannot see it", a, n, b, 4*n)
	}
}
