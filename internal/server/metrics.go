package server

import (
	"expvar"
	"net/http"
)

// Metrics are the server's operational counters, held as expvar vars so the
// embedding process can also expvar.Publish them on /debug/vars. They are
// per-Server (not package globals) so independent servers — and tests — do
// not collide in the process-wide expvar registry.
type Metrics struct {
	// Requests counts every API request received, including rejected ones.
	Requests expvar.Int
	// MemoHits / MemoMisses count completed simulation requests answered
	// from (respectively missing) the LRU result cache.
	MemoHits   expvar.Int
	MemoMisses expvar.Int
	// FlightJoins counts requests that attached to an identical in-progress
	// computation instead of starting their own (singleflight dedup).
	FlightJoins expvar.Int
	// InFlight is the number of simulations currently holding a worker slot.
	InFlight expvar.Int
	// SimRuns counts simulations actually executed (memoized and deduped
	// requests do not run).
	SimRuns expvar.Int
	// SimSeconds accumulates wall-clock seconds spent inside simulations.
	SimSeconds expvar.Float
	// Timeouts counts requests that ended with a deadline or cancellation.
	Timeouts expvar.Int
	// Errors counts requests answered with a non-2xx status.
	Errors expvar.Int
	// EvaluateRequests / SweepRequests count requests entering the two
	// simulation endpoints, and EvaluateNs / SweepNs accumulate their
	// wall-clock handler time (including memo hits and error paths), so the
	// memo hit rate can be read against time actually spent.
	EvaluateRequests expvar.Int
	SweepRequests    expvar.Int
	EvaluateNs       expvar.Int
	SweepNs          expvar.Int
	// JobRequests counts POST /v1/jobs submissions, accepted or not.
	JobRequests expvar.Int
}

// MetricsSnapshot is a point-in-time copy of the counters, shaped for JSON,
// plus the derived ratios and averages operators actually alert on. Ratios
// are 0 when their denominator is 0 and always within [0, 1].
type MetricsSnapshot struct {
	Requests         int64   `json:"requests"`
	MemoHits         int64   `json:"memo_hits"`
	MemoMisses       int64   `json:"memo_misses"`
	FlightJoins      int64   `json:"flight_joins"`
	InFlight         int64   `json:"in_flight"`
	SimRuns          int64   `json:"sim_runs"`
	SimSeconds       float64 `json:"sim_seconds"`
	Timeouts         int64   `json:"timeouts"`
	Errors           int64   `json:"errors"`
	EvaluateRequests int64   `json:"evaluate_requests"`
	SweepRequests    int64   `json:"sweep_requests"`
	EvaluateNsTotal  int64   `json:"evaluate_ns_total"`
	SweepNsTotal     int64   `json:"sweep_ns_total"`
	JobRequests      int64   `json:"job_requests"`
	MemoEntries      int     `json:"memo_entries"`

	MemoHitRatio       float64 `json:"memo_hit_ratio"`
	SimSecondsAvg      float64 `json:"sim_seconds_avg"`
	EvaluateSecondsAvg float64 `json:"evaluate_seconds_avg"`
	SweepSecondsAvg    float64 `json:"sweep_seconds_avg"`

	// StreamHits and StreamMisses are always 0 and never serialized: the
	// server no longer caches workload streams.
	//
	// Deprecated: kept only so existing readers still compile.
	StreamHits, StreamMisses int64 `json:"-"`
}

// hitRatio returns hits/(hits+misses), or 0 for an empty history.
func hitRatio(hits, misses int64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// perRun returns total/n, or 0 when nothing ran.
func perRun(total float64, n int64) float64 {
	if n > 0 {
		return total / float64(n)
	}
	return 0
}

// Snapshot copies the current counter values. The memo entry count is read
// under the server's lock by the caller (see Server.snapshot).
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Requests:         m.Requests.Value(),
		MemoHits:         m.MemoHits.Value(),
		MemoMisses:       m.MemoMisses.Value(),
		FlightJoins:      m.FlightJoins.Value(),
		InFlight:         m.InFlight.Value(),
		SimRuns:          m.SimRuns.Value(),
		SimSeconds:       m.SimSeconds.Value(),
		Timeouts:         m.Timeouts.Value(),
		Errors:           m.Errors.Value(),
		EvaluateRequests: m.EvaluateRequests.Value(),
		SweepRequests:    m.SweepRequests.Value(),
		EvaluateNsTotal:  m.EvaluateNs.Value(),
		SweepNsTotal:     m.SweepNs.Value(),
		JobRequests:      m.JobRequests.Value(),
	}
	snap.MemoHitRatio = hitRatio(snap.MemoHits, snap.MemoMisses)
	snap.SimSecondsAvg = perRun(snap.SimSeconds, snap.SimRuns)
	snap.EvaluateSecondsAvg = perRun(float64(snap.EvaluateNsTotal)/1e9, snap.EvaluateRequests)
	snap.SweepSecondsAvg = perRun(float64(snap.SweepNsTotal)/1e9, snap.SweepRequests)
	return snap
}

// snapshot extends the counter snapshot with lock-guarded state.
func (s *Server) snapshot() MetricsSnapshot {
	snap := s.metrics.Snapshot()
	s.mu.Lock()
	snap.MemoEntries = s.memo.len()
	s.mu.Unlock()
	return snap
}

// handleMetrics serves GET /metrics: Prometheus text exposition by default,
// the original expvar-shaped JSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus":
		s.prom.ServeText(w)
	case "json":
		writeJSON(w, http.StatusOK, s.snapshot())
	default:
		s.error(w, http.StatusBadRequest, "unknown metrics format "+strconvQuote(format))
	}
}

// ExpvarFunc returns an expvar.Func suitable for
// expvar.Publish("cacheserved", srv.ExpvarFunc()), for processes that also
// serve the standard /debug/vars endpoint.
func (s *Server) ExpvarFunc() expvar.Func {
	return func() any { return s.snapshot() }
}
