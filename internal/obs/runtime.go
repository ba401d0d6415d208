package obs

import (
	"math"
	"runtime/metrics"
)

// Go runtime telemetry: process-level health read from runtime/metrics at
// scrape time. A stuck sweep shows up as a flat goroutine count, a leaky
// result memo as climbing heap in-use, and GC pressure from big
// materialized traces as mass in the pause histogram — all without any
// accounting on the request path.

const (
	goroutinesMetric = "/sched/goroutines:goroutines"
	heapObjsMetric   = "/memory/classes/heap/objects:bytes"
	heapUnusedMetric = "/memory/classes/heap/unused:bytes"
	gcPausesMetric   = "/sched/pauses/total/gc:seconds"
)

// GCPauseBuckets returns the fixed bounds (seconds) the runtime's GC pause
// distribution is re-bucketed into for exposition, spanning 10µs..100ms.
func GCPauseBuckets() []float64 {
	return []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1}
}

// RegisterGoRuntime registers <prefix>_go_goroutines, <prefix>_go_heap_
// inuse_bytes and the <prefix>_go_gc_pause_seconds histogram on reg, all
// collected from runtime/metrics at scrape time.
func RegisterGoRuntime(reg *Registry, prefix string) {
	reg.NewGaugeFunc(prefix+"_go_goroutines",
		"Goroutines currently live in the process.",
		func() float64 { return readUint(goroutinesMetric) })
	reg.NewGaugeFunc(prefix+"_go_heap_inuse_bytes",
		"Bytes in in-use heap spans: live objects plus the unused space on their spans.",
		func() float64 { return readUint(heapObjsMetric) + readUint(heapUnusedMetric) })
	bounds := GCPauseBuckets()
	reg.NewHistogramFunc(prefix+"_go_gc_pause_seconds",
		"Stop-the-world GC pause durations since process start, re-bucketed from runtime/metrics (sum approximated from bucket midpoints).",
		func() HistogramState { return gcPauseState(bounds) })
}

// readUint reads one uint64-valued runtime metric, 0 when unsupported.
func readUint(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// gcPauseState re-buckets the runtime's GC pause histogram into the fixed
// bounds: each runtime bucket's count lands in the first fixed bucket whose
// bound covers the runtime bucket's upper edge (conservative — a pause is
// never reported shorter than it was), and the sum is approximated from
// bucket midpoints since the runtime does not expose one.
func gcPauseState(bounds []float64) HistogramState {
	s := []metrics.Sample{{Name: gcPausesMetric}}
	metrics.Read(s)
	st := HistogramState{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return st
	}
	h := s[0].Value.Float64Histogram()
	if h == nil || len(h.Buckets) != len(h.Counts)+1 {
		return st
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		bi := len(bounds) // +Inf bucket by default
		for j, b := range bounds {
			if hi <= b {
				bi = j
				break
			}
		}
		st.Counts[bi] += n
		st.Sum += float64(n) * bucketMid(lo, hi)
	}
	return st
}

// bucketMid picks a representative value for a runtime histogram bucket,
// tolerating the ±Inf edge buckets.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}
