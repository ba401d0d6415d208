package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric declares one reported number. Better is "lower" or "higher";
// Bound, for end-to-end metrics only, is the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root carries the same declarations (a
// test keeps the two in step).
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, measured untraced on
// every workload. Op latency is not among them: on a shared 2-vCPU host the
// median op time of a run moves by 10-30% from run to run, so it is a
// per-layer metric judged by compare's pair rule, not gated by a bound.
// setup_s, which takes a millisecond or less, has the largest bound.
var endToEnd = []metric{
	{"alloc_mb_per_op", "MB/op", lower, 0.10},
	{"peak_rss_mb", "MB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the layer metrics of a traced run. A workload that does not
// pass through a layer reports that layer's work as 0.
var perLayer = []metric{
	{"op_p50_s", "s", lower, 0},
	{"workload.gen_ns_per_ref", "ns/ref", lower, 0},
	{"workload.gen_share", "ratio", lower, 0},
	{"trace.collect_copy_ns_per_ref", "ns/ref", lower, 0},
	{"trace.collect_copy_bytes_per_ref", "B/ref", lower, 0},
	{"engine.multisystem.ns_per_ref", "ns/ref", lower, 0},
	{"engine.multisystem.bytes_per_ref", "B/ref", lower, 0},
	{"engine.fanout.ns_per_ref", "ns/ref", lower, 0},
	{"engine.fanout.bytes_per_ref", "B/ref", lower, 0},
	{"engine.hierarchy.ns_per_refsize", "ns/ref/size", lower, 0},
	{"engine.hierarchy.bytes_per_ref", "B/ref", lower, 0},
	{"engine.persize.ns_per_refsize", "ns/ref/size", lower, 0},
	{"engine.persize.bytes_per_ref", "B/ref", lower, 0},
	{"engine.share", "ratio", lower, 0},
	{"engine.parallel.segmented_passes", "count", higher, 0},
	{"experiments.overhead_share", "ratio", lower, 0},
	{"experiments.speedup", "ratio", higher, 0},
	{"server.warm_ms_p50", "ms", lower, 0},
	{"server.http_ms_p50", "ms", lower, 0},
	{"server.response_kb_p50", "KB", lower, 0},
	{"server.wait_ms_p50", "ms", lower, 0},
	{"server.materialize_ms_p50", "ms", lower, 0},
	{"server.engine_ms_p50", "ms", lower, 0},
	{"server.assemble_ms_p50", "ms", lower, 0},
	{"server.memo_hit_ratio", "ratio", higher, 0},
	{"server.stream_hit_ratio", "ratio", higher, 0},
	{"server.flight_join_ratio", "ratio", higher, 0},
	{"server.cold_p99_ms", "ms", lower, 0},
	{"server.all_p99_ms", "ms", lower, 0},
	{"loadgen.lag_p99_ms", "ms", lower, 0},
	{"loadgen.offered_rps", "1/s", higher, 0},
	{"jobs.accept_ms_p50", "ms", lower, 0},
	{"jobs.headers_ms_p50", "ms", lower, 0},
	{"jobs.first_result_ms_p50", "ms", lower, 0},
	{"jobs.delivery_lag_ms_p50", "ms", lower, 0},
	{"jobs.events_per_job", "count", lower, 0},
	{"jobs.stream_kb_per_job", "KB", lower, 0},
	{"jobs.dropped_events", "count", lower, 0},
	{"jobs.op_p90_ms", "ms", lower, 0},
	{"runtime.gc_cpu_share", "ratio", lower, 0},
	{"runtime.heap_peak_mb", "MB", lower, 0},
	{"runtime.goroutines_leaked", "count", lower, 0},
	{"bench.trace_overhead_frac", "ratio", lower, 0},
	{"bench.layer_coverage", "ratio", higher, 0},
}

// declared returns the metric set a run reports.
func declared(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// lookupMetric finds a declared metric by name in either set.
func lookupMetric(name string) (metric, bool) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// value is one reported number in the run record.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measured numbers by metric name.
type values map[string]float64

// report renders the declared metrics of a run: it fails if the workload
// produced a number the declarations lack or left one out, or if a number
// is not finite, so a run never prints a partial or invented result.
func (v values) report(traced bool) (map[string]value, error) {
	set := declared(traced)
	out := make(map[string]value, len(set))
	for _, m := range set {
		x, ok := v[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, x)
		}
		out[m.Name] = value{Value: x, Unit: m.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared for this run", name)
		}
	}
	return out, nil
}

// printMetrics writes one "name value unit" line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]value) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %s\n", n, fmtValue(ms[n].Value), ms[n].Unit)
	}
}

// fmtValue prints a number with all its digits.
func fmtValue(x float64) string { return fmt.Sprintf("%v", x) }
