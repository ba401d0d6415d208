package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// eventLog records every event's kind, stage and reference count.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Enabled(obs.Kind) bool { return true }

func (l *eventLog) Observe(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Elapsed = 0
	l.events = append(l.events, e)
}

// readerOnly hides a reader's Slicer, forcing Feed onto its chunk buffer.
type readerOnly struct{ trace.Reader }

// TestStreamEnginesFeedPaths runs both one-pass engines over one stream fed
// as a shared slice and through a plain reader: the results must match
// each other and per-size simulation, and the events must be one
// run start, progress at every obs.ProgressInterval references, and one
// run end.
func TestStreamEnginesFeedPaths(t *testing.T) {
	n := 3*obs.ProgressInterval + 123
	refs := simcheck.Stream(41, n)
	for _, fetch := range []cache.FetchPolicy{cache.DemandFetch, cache.PrefetchAlways} {
		spec := SweepSpec{Sizes: []int{256, 2048, 16384}, LineSize: 16, Split: true, Quantum: 7000, Fetch: fetch}
		e := SelectEngine(spec)
		if e.Open == nil {
			t.Fatalf("%s: no incremental form", e.Name)
		}
		var outs []SweepOut
		for _, rd := range []trace.Reader{trace.NewSliceReader(refs), readerOnly{trace.NewSliceReader(refs)}} {
			log := &eventLog{}
			out, err := RunSweep(context.Background(), spec, rd, log, "s", int64(n))
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
			want := []obs.Event{{Kind: obs.KindRunStart, Stage: "s", Total: int64(n)}}
			for k := int64(1); k <= 3; k++ {
				want = append(want, obs.Event{Kind: obs.KindProgress, Stage: "s", Refs: k * obs.ProgressInterval})
			}
			want = append(want, obs.Event{Kind: obs.KindRunEnd, Stage: "s", Refs: int64(n)})
			if !reflect.DeepEqual(log.events, want) {
				t.Errorf("%s events:\n got %+v\nwant %+v", e.Name, log.events, want)
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("%s: slice-fed and reader-fed results differ", e.Name)
		}
		ref := perSizeEngine
		want, err := ref.Run(context.Background(), spec, trace.NewSliceReader(refs), nil, "", int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[0].Results, want.Results) || outs[0].Purges != want.Purges {
			t.Errorf("%s: streamed results differ from per-size simulation", e.Name)
		}
	}
}

// TestStreamClosesOnError feeds two streams from a reader that fails
// mid-chunk and from a cancelled context: Feed must return the error and
// Close must pair every run start with a run end.
func TestStreamClosesOnError(t *testing.T) {
	refs := simcheck.Stream(5, 3*ChunkRefs)
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		rd   trace.Reader
		want error
	}{
		{"reader error", context.Background(), trace.ReaderFunc(func() func() (trace.Ref, error) {
			i := 0
			return func() (trace.Ref, error) {
				if i == ChunkRefs+10 {
					return trace.Ref{}, boom
				}
				if i == len(refs) {
					return trace.Ref{}, io.EOF
				}
				i++
				return refs[i-1], nil
			}
		}()), boom},
		{"cancelled", ctx, trace.NewSliceReader(refs), context.Canceled},
	} {
		log := &eventLog{}
		var streams []*SweepStream
		for _, fetch := range []cache.FetchPolicy{cache.DemandFetch, cache.PrefetchAlways} {
			spec := SweepSpec{Sizes: []int{512}, LineSize: 16, Fetch: fetch}
			st, err := SelectEngine(spec).Open(spec, log, fetch.String(), int64(len(refs)))
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
		err := Feed(tc.ctx, tc.rd, streams...)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: Feed error %v, want %v", tc.name, err, tc.want)
		}
		for _, st := range streams {
			if _, cerr := st.Close(err); !errors.Is(cerr, tc.want) {
				t.Errorf("%s: Close error %v, want %v", tc.name, cerr, tc.want)
			}
		}
		starts, ends := 0, 0
		for _, e := range log.events {
			switch e.Kind {
			case obs.KindRunStart:
				starts++
			case obs.KindRunEnd:
				ends++
			}
		}
		if starts != 2 || ends != 2 {
			t.Errorf("%s: %d run starts, %d run ends, want 2 each", tc.name, starts, ends)
		}
	}
}
