package core

// The incremental form of every simulation run. A multisystem or fan-out
// sweep needs each reference once, in order, and never again, so it can be
// fed in chunks as the stream is produced: the experiments grid feeds a
// mix's passes straight from its generator through one reusable buffer
// instead of materializing the stream, and the engines' own Run is the same
// form fed from a reader. Each size of a per-size sweep and each
// single-design evaluation runs as a stream too (openSizeSim), so
// SweepStream is the one emitter of run events.

import (
	"context"
	"io"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/recycle"
	"cacheeval/internal/trace"
)

// ChunkRefs is the length of the chunks Feed hands to sweep streams: 64 KB
// of references, small enough to stay cache-resident while several passes
// consume it in turn. It divides obs.ProgressInterval, so progress events
// land on the same reference counts as a per-reference loop's.
const ChunkRefs = 4096

// SweepStream is one run in incremental form: opened with its spec
// (SweepEngine.Open, or openSizeSim for one design), fed its stream in
// order (Feed), and ended with Close, which returns the results. It emits
// the run's events under its stage: run start when opened, progress every
// obs.ProgressInterval references, run end when closed, then the run's
// batched reports. Every event method is a no-op on a nil sink.
type SweepStream struct {
	feed    func(refs []trace.Ref)
	finish  func() SweepOut
	release func()
	// sim is the design a size stream simulates (openSizeSim), whose
	// batched reports follow the run end; nil for the one-pass sweeps.
	sim   sizeSim
	sink  obs.Sink
	stage string
	t0    time.Time
	n     int64
}

// newSweepStream opens a stream over an engine's per-chunk loop, its
// result assembly (nil when the caller reads the simulator itself) and its
// release (nil when the engine owns no recycled arrays), emitting the
// run's start event.
func newSweepStream(sink obs.Sink, stage string, total int64, feed func([]trace.Ref), finish func() SweepOut, release func()) *SweepStream {
	st := &SweepStream{feed: feed, finish: finish, release: release, sink: sink, stage: stage}
	if sink != nil {
		st.t0 = time.Now()
		sink.Observe(obs.Event{Kind: obs.KindRunStart, Stage: stage, Total: total})
	}
	return st
}

// Feed simulates the next references of the stream.
func (st *SweepStream) Feed(refs []trace.Ref) {
	st.feed(refs)
	n0 := st.n
	st.n += int64(len(refs))
	if st.sink == nil {
		return
	}
	for next := (n0/obs.ProgressInterval + 1) * obs.ProgressInterval; next <= st.n; next += obs.ProgressInterval {
		st.sink.Observe(obs.Event{Kind: obs.KindProgress, Stage: st.stage, Refs: next})
	}
}

// Close ends the run: it emits the run's end event and batched reports,
// and releases the simulator. With a nil err it returns the run's results
// (none for a size stream, whose simulator's statistics stay readable);
// otherwise it returns err. Every opened stream must be closed exactly
// once, on every path, so its events stay paired and its arrays return to
// the recycler.
func (st *SweepStream) Close(err error) (SweepOut, error) {
	if st.sink != nil {
		st.sink.Observe(obs.Event{Kind: obs.KindRunEnd, Stage: st.stage, Refs: st.n, Elapsed: time.Since(st.t0)})
		if st.sim != nil {
			reportSizeSim(st.sink, st.stage, st.sim)
		}
	}
	if st.release != nil {
		defer st.release()
	}
	if err != nil || st.finish == nil {
		return SweepOut{}, err
	}
	return st.finish(), nil
}

// chunkPool recycles Feed's chunk buffers, so a reader that cannot lend
// its slice costs one pooled buffer per in-flight Feed, not a fresh 64 KB
// per call.
var chunkPool recycle.Pool[trace.Ref]

// Feed drives streams from rd until its end, handing each chunk to every
// stream in turn. A reader that can share its backing slice (trace.Slicer)
// is fed from that slice without a copy; any other is read into one
// ChunkRefs buffer, drawn from a recycler and reused for every chunk. The
// context is checked between chunks. Feed returns the first error — rd's
// or the context's — and leaves closing the streams to the caller.
func Feed(ctx context.Context, rd trace.Reader, streams ...*SweepStream) error {
	feed := func(chunk []trace.Ref) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, st := range streams {
			st.Feed(chunk)
		}
		return nil
	}
	if sl, ok := rd.(trace.Slicer); ok {
		if refs, ok := sl.RestSlice(); ok {
			for len(refs) > 0 {
				n := min(len(refs), ChunkRefs)
				if err := feed(refs[:n]); err != nil {
					return err
				}
				refs = refs[n:]
			}
			return nil
		}
	}
	buf := chunkPool.Get(ChunkRefs)
	defer chunkPool.Put(buf)
	for {
		n := 0
		for ; n < len(buf); n++ {
			r, err := rd.Read()
			if err == io.EOF {
				return feed(buf[:n])
			}
			if err != nil {
				return err
			}
			buf[n] = r
		}
		if err := feed(buf); err != nil {
			return err
		}
	}
}

// streamed is the Run of an engine with an incremental form: open, feed
// from rd, close.
func streamed(open func(SweepSpec, obs.Sink, string, int64) (*SweepStream, error)) func(context.Context, SweepSpec, trace.Reader, obs.Sink, string, int64) (SweepOut, error) {
	return func(ctx context.Context, s SweepSpec, rd trace.Reader, sink obs.Sink, stage string, total int64) (SweepOut, error) {
		st, err := open(s, sink, stage, total)
		if err != nil {
			return SweepOut{}, err
		}
		return st.Close(Feed(ctx, rd, st))
	}
}

// openMulti opens the generalized stack simulation.
func openMulti(s SweepSpec, sink obs.Sink, stage string, total int64) (*SweepStream, error) {
	ms, err := cache.NewMultiSystem(cache.MultiConfig{
		Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split, PurgeInterval: s.Quantum,
	})
	if err != nil {
		return nil, err
	}
	return newSweepStream(sink, stage, total,
		func(refs []trace.Ref) {
			for _, r := range refs {
				ms.Ref(r)
			}
		},
		func() SweepOut { return SweepOut{Results: ms.Results(), Purges: ms.Purges()} },
		nil), nil
}

// openFanout opens the prefetch fan-out engine; Close releases its
// per-size arrays.
func openFanout(s SweepSpec, sink obs.Sink, stage string, total int64) (*SweepStream, error) {
	fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
		Sizes: s.Sizes, LineSize: s.LineSize, Split: s.Split, PurgeInterval: s.Quantum,
	})
	if err != nil {
		return nil, err
	}
	return newSweepStream(sink, stage, total,
		func(refs []trace.Ref) {
			for _, r := range refs {
				fs.Ref(r)
			}
		},
		func() SweepOut { return SweepOut{Results: fs.Results(), Purges: fs.Purges()} },
		fs.Release), nil
}
