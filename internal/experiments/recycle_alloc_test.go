//go:build !race

package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/workload"
)

// The recycled reference buffers' pins. The race detector makes sync.Pool
// drop Puts at random, so they build only without it, and they run on one
// P: sync.Pool keeps one buffer per P where no other P can take it, so
// with more Ps a goroutine that migrates between sweeps finds its class
// empty and the pins would measure scheduler placement, not recycling.

// sweepAlloc returns the bytes one sweep allocates.
func sweepAlloc(t *testing.T, o Options, mixes ...workload.Mix) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SweepMixes(o, mixes); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepRecyclesRefBuffers pins the saving of recycled buffers: once
// an ARC sweep has run, a second identical sweep draws its stream buffer
// and its cache arrays from the recycler, so it allocates under 1 byte
// per reference, against the 16 a fresh buffer costs.
func TestSweepRecyclesRefBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200_000
	mix := shortMixes(3, n)[2] // VCCOM, one program
	o := Options{Sizes: []int{256, 4096}, Repl: cache.ARC, Workers: 1}
	first, second := sweepAlloc(t, o, mix), sweepAlloc(t, o, mix)
	t.Logf("ARC sweep of %d refs: first call %d bytes, second %d", n, first, second)
	if second >= n {
		t.Errorf("second sweep allocated %d bytes, want < %d (1 B/ref: buffer recycled)", second, n)
	}
}

// TestSweepReturnsBufferPerMix pins when a sweep frees a mix's buffer
// for its next mixes: as soon as the mix's last pass job ends, not when
// the sweep does. A one-worker sweep over three mixes of one length then
// fills one buffer three times. A buffer of 200k refs takes the 2^18 class, 21 B/ref
// of the mix, so one fresh buffer stays under 32 B/ref and two do not.
func TestSweepReturnsBufferPerMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200_000
	mixes := make([]workload.Mix, 3)
	for i := range mixes {
		mixes[i] = shortMixes(3, n)[2] // VCCOM, one program
		mixes[i].Name = fmt.Sprintf("VCCOM-%d", i)
	}
	o := Options{Sizes: []int{256, 4096}, Repl: cache.ARC, Workers: 1}
	got := sweepAlloc(t, o, mixes...)
	t.Logf("ARC sweep of 3 x %d refs allocated %d bytes", n, got)
	if limit := uint64(32 * n); got >= limit {
		t.Errorf("sweep allocated %d bytes, want < %d (one buffer reused across the mixes)", got, limit)
	}
}

// TestMaterializedSweepCancelRecycles cancels a per-size sweep through
// SweepMixesContext at its first progress event. With four workers every
// pass job of the mix has started and shares the buffer; with two, two
// jobs never start, so the sweep itself must return the buffer. Either way
// the sweep must fail with the cancellation, close every stage it opened,
// leave no goroutine behind and return its buffer: a later sweep of the
// mix still allocates under 1 byte per reference.
func TestMaterializedSweepCancelRecycles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 300_000
	mix := shortMixes(3, n)[2] // VCCOM
	for _, workers := range []int{4, 2} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := newStageSink()
		sink.cancel = cancel
		o := Options{Sizes: []int{1024, 16384}, Repl: cache.ARC, Workers: workers}
		withSink := o
		withSink.Sink = sink
		_, err := SweepMixesContext(ctx, withSink, []workload.Mix{mix})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(sink.starts) == 0 || !reflect.DeepEqual(sink.starts, sink.ends) {
			t.Errorf("workers=%d: unpaired stages: starts %v ends %v", workers, sink.starts, sink.ends)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			buf := make([]byte, 1<<16)
			t.Fatalf("workers=%d: %d goroutines after the sweep, %d before\n%s", workers, g, base, buf[:runtime.Stack(buf, true)])
		}
		o.Workers = 1
		if got := sweepAlloc(t, o, mix); got >= n {
			t.Errorf("workers=%d: sweep after the cancelled one allocated %d bytes, want < %d (buffer recycled)", workers, got, n)
		}
	}
}
