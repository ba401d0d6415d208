package server

import (
	"cacheeval/internal/obs"
)

// Prometheus exposition: every expvar-backed counter is re-exported as a
// scrape-time counter func (one source of truth, no double accounting), the
// derived ratios/averages become gauges, and the request/engine latency
// distributions become fixed-bucket histograms. The registry is per-Server,
// like Metrics, so tests and embedded servers never collide.

// buildProm registers the cacheeval_* metric families on a fresh registry.
// Called once from New, before the server handles requests.
func (s *Server) buildProm() {
	reg := obs.NewRegistry()
	s.prom = reg

	intCounter := func(name, help string, v func() int64) {
		reg.NewCounterFunc(name, help, func() float64 { return float64(v()) })
	}
	m := s.metrics
	intCounter("cacheeval_requests_total",
		"API requests received, including rejected ones.", m.Requests.Value)
	intCounter("cacheeval_errors_total",
		"Requests answered with a non-2xx status.", m.Errors.Value)
	intCounter("cacheeval_timeouts_total",
		"Requests that ended with a deadline or cancellation.", m.Timeouts.Value)
	intCounter("cacheeval_evaluate_requests_total",
		"Requests entering POST /v1/evaluate.", m.EvaluateRequests.Value)
	intCounter("cacheeval_sweep_requests_total",
		"Requests entering POST /v1/sweep.", m.SweepRequests.Value)
	intCounter("cacheeval_sim_runs_total",
		"Simulations actually executed (memo hits and flight joins do not run).", m.SimRuns.Value)
	reg.NewCounterFunc("cacheeval_sim_seconds_total",
		"Wall-clock seconds spent inside simulations.", m.SimSeconds.Value)
	intCounter("cacheeval_memo_hits_total",
		"Simulation requests answered from the LRU result cache.", m.MemoHits.Value)
	intCounter("cacheeval_memo_misses_total",
		"Simulation requests that missed the LRU result cache.", m.MemoMisses.Value)
	intCounter("cacheeval_flight_joins_total",
		"Requests that joined an identical in-progress computation.", m.FlightJoins.Value)

	reg.NewGaugeFunc("cacheeval_memo_hit_ratio",
		"Fraction of simulation requests answered from the result cache, in [0,1].",
		func() float64 { return hitRatio(m.MemoHits.Value(), m.MemoMisses.Value()) })
	reg.NewGaugeFunc("cacheeval_sim_seconds_avg",
		"Mean wall-clock seconds per executed simulation.",
		func() float64 { return perRun(m.SimSeconds.Value(), m.SimRuns.Value()) })
	reg.NewGaugeFunc("cacheeval_evaluate_seconds_avg",
		"Mean handler seconds per evaluate request, memo hits included.",
		func() float64 { return perRun(float64(m.EvaluateNs.Value())/1e9, m.EvaluateRequests.Value()) })
	reg.NewGaugeFunc("cacheeval_sweep_seconds_avg",
		"Mean handler seconds per sweep request, memo hits included.",
		func() float64 { return perRun(float64(m.SweepNs.Value())/1e9, m.SweepRequests.Value()) })

	reg.NewGaugeFunc("cacheeval_in_flight_sims",
		"Simulations currently holding a worker-pool slot.",
		func() float64 { return float64(m.InFlight.Value()) })
	reg.NewGaugeFunc("cacheeval_http_in_flight_requests",
		"HTTP requests currently being served.",
		func() float64 { return float64(s.httpInFlight.Load()) })
	reg.NewGaugeFunc("cacheeval_worker_pool_busy",
		"Occupied worker-pool slots.",
		func() float64 { return float64(len(s.workers)) })
	reg.NewGaugeFunc("cacheeval_worker_pool_capacity",
		"Total worker-pool slots (Config.MaxConcurrent).",
		func() float64 { return float64(cap(s.workers)) })
	reg.NewGaugeFunc("cacheeval_memo_entries",
		"Entries in the LRU result cache.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.memo.len()) })

	s.evalHist = reg.NewHistogram("cacheeval_evaluate_duration_seconds",
		"POST /v1/evaluate handler latency, memo hits and errors included.",
		obs.LatencyBuckets())
	s.sweepHist = reg.NewHistogram("cacheeval_sweep_duration_seconds",
		"POST /v1/sweep handler latency, memo hits and errors included.",
		obs.LatencyBuckets())
	s.engineRefs = reg.NewCounter("cacheeval_engine_refs_total",
		"Trace references processed by completed simulation engine runs.")
	s.refsRateHist = reg.NewHistogram("cacheeval_engine_refs_per_second",
		"Throughput of completed simulation engine runs, references/second.",
		obs.RateBuckets())
	s.causeCompulsory = reg.NewCounter("cacheeval_engine_compulsory_misses_total",
		"Demand misses to never-before-seen lines (3C classification), summed over per-size engine runs.")
	s.causeCapacity = reg.NewCounter("cacheeval_engine_capacity_misses_total",
		"Demand misses a fully-associative cache of the same size would also take, summed over per-size engine runs.")
	s.causeConflict = reg.NewCounter("cacheeval_engine_conflict_misses_total",
		"Demand misses caused by set-mapping conflicts, summed over per-size engine runs.")

	s.hierL2Fetches = reg.NewCounter("cacheeval_hierarchy_l2_fetches_total",
		"Fetch events the second-level cache served, summed over two-level engine runs.")
	s.hierL2FetchMisses = reg.NewCounter("cacheeval_hierarchy_l2_fetch_misses_total",
		"Fetch events the second-level cache missed on, summed over two-level engine runs.")
	s.hierL2Writes = reg.NewCounter("cacheeval_hierarchy_l2_writes_total",
		"Write-back events the second-level cache absorbed, summed over two-level engine runs.")
	s.hierL2WriteMisses = reg.NewCounter("cacheeval_hierarchy_l2_write_misses_total",
		"Write-back events the second-level cache missed on, summed over two-level engine runs.")
	s.hierVictimHits = reg.NewCounter("cacheeval_hierarchy_victim_hits_total",
		"Misses served from a victim buffer without a memory fetch, summed over engine runs.")

	// Async-job families read straight off the job registry at scrape time.
	intCounter("cacheeval_jobs_requests_total",
		"POST /v1/jobs submissions, accepted or not.", m.JobRequests.Value)
	reg.NewCounterFunc("cacheeval_jobs_created_total",
		"Async jobs accepted into the registry.",
		func() float64 { return float64(s.jobs.Created()) })
	reg.NewCounterFunc("cacheeval_jobs_evicted_total",
		"Finished jobs evicted from the registry (TTL or capacity).",
		func() float64 { return float64(s.jobs.Evicted()) })
	reg.NewCounterFunc("cacheeval_jobs_events_emitted_total",
		"Events published across all jobs' streams.",
		func() float64 { return float64(s.jobs.EventsEmitted()) })
	reg.NewGaugeFunc("cacheeval_jobs_active",
		"Jobs currently running a simulation.",
		func() float64 { a, _, _ := s.jobs.Counts(); return float64(a) })
	reg.NewGaugeFunc("cacheeval_jobs_queued",
		"Jobs accepted but not yet started.",
		func() float64 { _, q, _ := s.jobs.Counts(); return float64(q) })
	reg.NewGaugeFunc("cacheeval_jobs_held",
		"Jobs held in the registry, finished ones awaiting TTL eviction included.",
		func() float64 { _, _, h := s.jobs.Counts(); return float64(h) })
	reg.NewGaugeFunc("cacheeval_jobs_subscribers",
		"Event-stream consumers currently attached across all jobs.",
		func() float64 { return float64(s.jobs.Subscribers()) })

	// Go runtime telemetry: scheduler, heap and GC pause health of the
	// process serving the engines (see obs.RegisterGoRuntime).
	obs.RegisterGoRuntime(reg, "cacheeval")
}

// simSink feeds the engine metric families from engine events. One
// instance serves every concurrent simulation; stage identity travels in
// the events, so no per-run state is needed. Its Enabled covers
// obs.KindMissCauses, which switches every single-design evaluation and
// per-size engine run of a single-level design onto the 3C attribution
// path, whose totals land here at the end of each run. A design that is its
// own 3C shadow, such as the default fully associative LRU one, pays a
// seen-set probe per miss; any other also runs a shadow cache per
// reference (see cache.Cache.EnableMissCauses).
type simSink struct{ s *Server }

// Enabled reports the kinds Observe counts.
func (p simSink) Enabled(k obs.Kind) bool {
	switch k {
	case obs.KindRunEnd, obs.KindMissCauses, obs.KindHierarchyRun:
		return true
	}
	return false
}

// Observe updates the families an event feeds; victim-only hierarchy runs
// report zero L2 events.
func (p simSink) Observe(e obs.Event) {
	s := p.s
	switch e.Kind {
	case obs.KindRunEnd:
		s.engineRefs.Add(e.Refs)
		if e.Refs > 0 && e.Elapsed > 0 {
			s.refsRateHist.Observe(float64(e.Refs) / e.Elapsed.Seconds())
		}
	case obs.KindMissCauses:
		s.causeCompulsory.Add(int64(e.Compulsory))
		s.causeCapacity.Add(int64(e.Capacity))
		s.causeConflict.Add(int64(e.Conflict))
	case obs.KindHierarchyRun:
		s.hierL2Fetches.Add(int64(e.L2Fetches))
		s.hierL2FetchMisses.Add(int64(e.L2FetchMisses))
		s.hierL2Writes.Add(int64(e.L2Writes))
		s.hierL2WriteMisses.Add(int64(e.L2WriteMisses))
		s.hierVictimHits.Add(int64(e.VictimHits))
	}
}
