// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic corpus: one constructor per artifact,
// returning structured results that render paper-style tables/plots and
// compare against the published numbers in internal/model.
//
// See DESIGN.md §4 for the experiment index.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/model"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// Options control simulation scale. The zero value reproduces the paper's
// parameters.
type Options struct {
	// Sizes are the cache sizes to sweep; default model.CacheSizes
	// (32 bytes .. 64 Kbytes).
	Sizes []int
	// LineSize is the cache line size; default 16 bytes, the paper's value.
	LineSize int
	// RefLimit caps the references taken from each trace; 0 uses each
	// trace's paper run length. Tests use small limits.
	RefLimit int
	// Workers bounds simulation parallelism. Zero or negative selects
	// GOMAXPROCS; values larger than the number of independent jobs in a
	// given experiment are clamped down to the job count by each driver
	// (see forEach), so over-provisioning never spawns idle goroutines.
	// Workers=1 runs every job sequentially in index order on the calling
	// goroutine. Results are bit-identical regardless of the worker count:
	// each job writes only its own slot, so scheduling order never shows
	// through in the output.
	Workers int
	// Repl is the replacement policy every simulated cache uses. The zero
	// value is LRU, the paper's policy; non-LRU policies break stack
	// inclusion, so sweeps over them fall back (via the core engine
	// registry) from the one-pass engines to one cache per size.
	Repl cache.Replacement
	// Victim adds a fully-associative victim buffer of this many lines
	// behind every simulated cache (see core.SweepSpec.Victim); zero means
	// no buffer. A buffer breaks stack inclusion, so such sweeps run one
	// cache per size.
	Victim int
	// L2 opts every sweep pass into two-level simulation behind this
	// second-level cache (see core.SweepSpec.L2); nil keeps single-level
	// simulation. Hierarchies route to the per-size engine.
	L2 *core.L2Spec
	// Sink, when non-nil, receives the engine events (obs.Event: run
	// start/progress/end plus the engines' batched reports) of every
	// simulation an experiment runs. The sink must be safe for concurrent
	// use — with Workers > 1 several engine passes report to it at once,
	// each under its own stage name. Nil keeps the engines' hot paths on
	// the uninstrumented fast path (see DESIGN.md §8).
	Sink obs.Sink
	// OnPass, when non-nil, receives each completed sweep grid pass — the
	// (mix, organization, fetch policy) identity plus its per-size
	// results — as soon as the pass finishes, before the sweep as a whole
	// completes. With Workers > 1 passes finish concurrently, so the
	// callback must be safe for concurrent use. The evaluation service
	// uses it to stream per-cell results from async jobs; nil costs
	// nothing.
	OnPass func(p PassResult)
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = model.CacheSizes
	}
	if o.LineSize == 0 {
		o.LineSize = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// limit caps n by the RefLimit option.
func (o Options) limit(n int) int {
	if o.RefLimit > 0 && o.RefLimit < n {
		return o.RefLimit
	}
	return n
}

// openSpec returns a spec's reference stream honouring RefLimit.
func (o Options) openSpec(s workload.Spec) (trace.Reader, error) {
	r, err := s.Open()
	if err != nil {
		return nil, err
	}
	if o.RefLimit > 0 {
		r = trace.NewLimitReader(r, o.RefLimit)
	}
	return r, nil
}

// collectSpec materializes a spec's trace.
func (o Options) collectSpec(s workload.Spec) ([]trace.Ref, error) {
	r, err := o.openSpec(s)
	if err != nil {
		return nil, err
	}
	return trace.Collect(r, 0, o.limit(s.Refs))
}

// collectMix materializes a mix's interleaved stream. RefLimit applies per
// member, preserving the round-robin structure at reduced scale.
func (o Options) collectMix(m workload.Mix) ([]trace.Ref, error) {
	return o.CollectMixContext(context.Background(), m)
}

// CollectMixContext materializes a mix's interleaved reference stream
// exactly as the sweep drivers do: RefLimit applies per member, preserving
// the round-robin structure at reduced scale. Synthesizing a long trace is
// itself slow enough to need the context check.
func (o Options) CollectMixContext(ctx context.Context, m workload.Mix) ([]trace.Ref, error) {
	// The (possibly limited) mix knows its exact interleaved length, so the
	// stream materializes in one allocation instead of append-growth.
	return o.appendMix(ctx, make([]trace.Ref, 0, o.limitMix(m).TotalRefs()), m)
}

// appendMix appends a mix's interleaved reference stream, RefLimit
// applied per member, to dst and returns the extended slice.
func (o Options) appendMix(ctx context.Context, dst []trace.Ref, m workload.Mix) ([]trace.Ref, error) {
	r, err := o.limitMix(m).Open()
	if err != nil {
		return dst, err
	}
	return trace.Append(dst, trace.NewContextReader(ctx, r), 0)
}

// limitMix applies RefLimit to every member of m, preserving the
// round-robin structure at reduced scale; without a limit m is returned
// as is.
func (o Options) limitMix(m workload.Mix) workload.Mix {
	if o.RefLimit <= 0 {
		return m
	}
	limited := m
	limited.Specs = make([]workload.Spec, len(m.Specs))
	copy(limited.Specs, m.Specs)
	for i := range limited.Specs {
		limited.Specs[i].Refs = o.limit(limited.Specs[i].Refs)
	}
	return limited
}

// forEach runs fn(i) for i in [0, n) on the calling goroutine plus up to
// Workers-1 more, and returns the first error (by lowest index) if any
// failed.
func (o Options) forEach(n int, fn func(i int) error) error {
	return o.forEachCtx(context.Background(), n, fn)
}

// forEachCtx is forEach with cancellation: once ctx is done or an fn call
// has failed no further indices are dispatched, in-flight fn calls are
// left to observe ctx themselves, and ctx.Err() is reported unless an fn
// error takes precedence. Indices are dispatched in order, so every index
// below a failed one has run and the lowest-index error is the one the
// serial order would have hit first. All worker goroutines have exited by
// the time it returns.
//
// It starts min(Workers, n)-1 goroutines; the caller's own goroutine is
// the last worker. With Workers=1 (or n=1) every job runs in index order
// on the calling goroutine. Each job writes only its own slot, so results
// are bit-identical regardless of the worker count.
func (o Options) forEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	extra := min(max(o.Workers, 1), n) - 1
	if extra <= 0 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	failed := make(chan struct{})
	var fail sync.Once
	run := func(i int) {
		if errs[i] = fn(i); errs[i] != nil {
			fail.Do(func() { close(failed) })
		}
	}
	go func() {
		defer close(next)
		done := ctx.Done()
		for i := 0; i < n; i++ {
			select {
			case <-failed:
				return
			default:
			}
			select {
			case next <- i:
			case <-done:
				return
			case <-failed:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := range next {
		run(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// fmtMiss formats a miss ratio for tables.
func fmtMiss(m float64) string { return fmt.Sprintf("%.4f", m) }
