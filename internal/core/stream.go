package core

// The one-pass engines' incremental form. A multisystem or fan-out sweep
// needs each reference once, in order, and never again, so it can be fed
// in chunks as the stream is produced: the experiments grid feeds a mix's
// passes straight from its generator through one reusable buffer instead of
// materializing the stream, and the engines' own Run is the same form fed
// from a reader.

import (
	"context"
	"io"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// ChunkRefs is the length of the chunks Feed hands to sweep streams: 64 KB
// of references, small enough to stay cache-resident while several passes
// consume it in turn. It divides obs.ProgressInterval, so progress events
// land on the same reference counts as a per-reference loop's.
const ChunkRefs = 4096

// SweepStream is one sweep in incremental form: opened with its spec
// (SweepEngine.Open), fed its stream in order (Feed), and ended with Close,
// which returns the results. It emits the same events as the engine's Run
// under its stage: run start when opened, progress every
// obs.ProgressInterval references, run end when closed.
type SweepStream struct {
	feed    func(refs []trace.Ref)
	finish  func() SweepOut
	release func()
	run     *stageRun
	n       int64
}

// newSweepStream opens a stream over an engine's per-chunk loop, its
// result assembly and its release (nil when the engine owns no recycled
// arrays), emitting the run's start event.
func newSweepStream(sink obs.Sink, stage string, total int64, feed func([]trace.Ref), finish func() SweepOut, release func()) *SweepStream {
	return &SweepStream{feed: feed, finish: finish, release: release, run: startStage(sink, stage, int(total))}
}

// Feed simulates the next references of the stream.
func (st *SweepStream) Feed(refs []trace.Ref) {
	st.feed(refs)
	n0 := st.n
	st.n += int64(len(refs))
	if st.run.sink == nil {
		return
	}
	for next := (n0/obs.ProgressInterval + 1) * obs.ProgressInterval; next <= st.n; next += obs.ProgressInterval {
		st.run.sink.Observe(obs.Event{Kind: obs.KindProgress, Stage: st.run.stage, Refs: next})
	}
}

// Close ends the run: it emits the run's end event and releases the
// engine. With a nil err it returns the sweep's results; otherwise it
// returns err. Every opened stream must be closed exactly once, on every
// path, so its events stay paired and its arrays return to the recycler.
func (st *SweepStream) Close(err error) (SweepOut, error) {
	st.run.end(st.n)
	if st.release != nil {
		defer st.release()
	}
	if err != nil {
		return SweepOut{}, err
	}
	return st.finish(), nil
}

// Feed drives streams from rd until its end, handing each chunk to every
// stream in turn. A reader that can share its backing slice (trace.Slicer)
// is fed from that slice without a copy; any other is read into one
// ChunkRefs buffer, reused for every chunk. The context is checked between
// chunks. Feed returns the first error — rd's or the context's — and
// leaves closing the streams to the caller.
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
	buf := make([]trace.Ref, ChunkRefs)
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
