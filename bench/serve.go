package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strings"
	"sync"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/model"
	"cacheeval/internal/obs"
	"cacheeval/internal/server"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// serve-open is an open loop: independent users whose requests arrive as a
// Poisson process regardless of how fast the server answers, so a stall
// delays every later request and shows in the latencies, each timed from
// when it was due. Every other request is new, 80% of them /v1/evaluate
// (a catalog mix at 100k references per member, a design, LRU:FIFO about
// 3:1) and 20% /v1/sweep (one mix, 20k references per member, 5 sizes);
// the rest repeat one of the last 128 new requests, so they are memo hits.
// The 64-mix catalog churns the server's 8-entry stream cache. The rate, 20
// requests per second, keeps the server about a quarter busy: at twice
// that, waiting dominated cold latency.

const (
	repeatWindow = 128
	replayShare  = 0.02
	// requestTimeout bounds one request; a request that exceeds it fails.
	requestTimeout = 30 * time.Second
)

// openRequest is one scheduled request.
type openRequest struct {
	due    time.Duration // from the start of the schedule
	path   string
	body   []byte
	id     int  // new-request id; repeats share it
	replay bool // checked against a fresh uncached server afterwards
	sweep  bool
}

// schedule draws the seeded request schedule for the warm-up and the
// window. Each phase holds exactly rate × its length arrivals at uniformly
// random times (a Poisson process conditioned on its count), and its new
// requests are a fixed set — newRequest(j) for a fixed range of j — dealt
// in a seeded order. The seed thus moves which request comes when and which
// earlier request a repeat repeats, never how much work a window holds: the
// catalog's mixes differ fivefold in cost, and a window that drew its own
// mixes would make the cold median follow the draw. Traced runs set "trace"
// on new requests of every other pass over the catalog, so traced and
// untraced requests cover the same mixes and the window also measures the
// tracing overhead.
func schedule(seed uint64, sc scale, window time.Duration, catalog []server.MixInfo, traced bool) ([]openRequest, error) {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	var out, recent []openRequest
	next := 0
	for _, ph := range []struct{ from, span time.Duration }{{0, sc.warmup}, {sc.warmup, window}} {
		n := int(math.Round(sc.rate * ph.span.Seconds()))
		due := make([]time.Duration, n)
		for i := range due {
			due[i] = ph.from + time.Duration(r.Float64()*float64(ph.span))
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		fresh := make([]openRequest, (n+1)/2)
		for k := range fresh {
			rq, err := newRequest(sc, catalog, next, traced && next/len(catalog)%2 == 1)
			if err != nil {
				return nil, err
			}
			rq.replay = r.Float64() < replayShare
			fresh[k] = rq
			next++
		}
		r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		for i, t := range due {
			var rq openRequest
			if i%2 == 0 {
				rq = fresh[i/2]
				recent = append(recent, rq)
				if len(recent) > repeatWindow {
					recent = recent[1:]
				}
			} else {
				rq = recent[r.IntN(len(recent))]
			}
			rq.due = t
			out = append(out, rq)
		}
	}
	return out, nil
}

// newRequest builds new request j. Its mix is catalog entry j mod 64, so
// consecutive ranges of j cover the catalog evenly; its endpoint and design
// are drawn from a generator keyed by j alone.
func newRequest(sc scale, catalog []server.MixInfo, j int, withTrace bool) (openRequest, error) {
	h := rand.New(rand.NewPCG(uint64(j), 0x72657173))
	mix := catalog[j%len(catalog)]
	rq := openRequest{id: j}
	var req any
	if h.IntN(5) == 0 {
		start := h.IntN(len(model.CacheSizes) - 4)
		rq.path, rq.sweep = "/v1/sweep", true
		req = server.SweepRequest{Mixes: []string{mix.Name}, Sizes: model.CacheSizes[start : start+5],
			RefLimit: sc.sweepRefLimit, Trace: withTrace}
	} else {
		c := cache.Config{Size: 1 << (10 + h.IntN(7)), LineSize: 16 << h.IntN(2)}
		design := cache.SystemConfig{Unified: c, PurgeInterval: mix.Quantum}
		if h.IntN(2) == 1 {
			design = cache.SystemConfig{Split: true, I: c, D: c, PurgeInterval: mix.Quantum}
		}
		policy := "lru"
		if h.IntN(4) == 0 {
			policy = "fifo"
		}
		rq.path = "/v1/evaluate"
		req = server.EvaluateRequest{Design: design, Mix: mix.Name, Policy: policy,
			RefLimit: sc.evalRefLimit, Trace: withTrace}
	}
	b, err := json.Marshal(req)
	rq.body = b
	return rq, err
}

// openResult is one answered (or failed) request.
type openResult struct {
	rq             openRequest
	err            error
	lag            time.Duration // dispatch - due
	latency        time.Duration // from due
	transport      time.Duration // connection acquired -> body read, minus server elapsed
	body           []byte
	cached, shared bool
	traced         bool
	spans          []obs.SpanSummary
	elapsed        time.Duration
}

// cold reports whether the request was computed for this caller: neither a
// memo hit nor a join of another caller's flight.
func (r openResult) cold() bool { return !r.cached && !r.shared }

// openResponse is the part of an evaluate or sweep reply the benchmark
// reads.
type openResponse struct {
	Cached    bool              `json:"cached"`
	Shared    bool              `json:"shared"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Trace     []obs.SpanSummary `json:"trace"`
}

// send issues one request and times it from its due time.
func send(ctx context.Context, s *service, rq openRequest, due time.Time) openResult {
	res := openResult{rq: rq, lag: time.Since(due)}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var conn time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { conn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		res.err = err
		return res
	}
	resp, err := s.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	res.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(res.body))
	}
	var or openResponse
	if err == nil {
		err = json.Unmarshal(res.body, &or)
	}
	if err != nil {
		res.err = fmt.Errorf("%s: %w", rq.path, err)
		return res
	}
	res.latency = done.Sub(due)
	res.elapsed = time.Duration(or.ElapsedMS * float64(time.Millisecond))
	res.transport = done.Sub(conn) - res.elapsed
	res.cached, res.shared, res.spans, res.traced = or.Cached, or.Shared, or.Trace, len(or.Trace) > 0
	return res
}

// drive plays the schedule open loop against s: every request is
// dispatched at its due time on its own goroutine and drive returns once
// all have finished.
func drive(ctx context.Context, s *service, sched []openRequest, start time.Time) []openResult {
	results := make([]openResult, len(sched))
	var wg sync.WaitGroup
	for i, rq := range sched {
		due := start.Add(rq.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, rq openRequest) {
			defer wg.Done()
			results[i] = send(ctx, s, rq, due)
		}(i, rq)
	}
	wg.Wait()
	return results
}

func runServeOpen(ctx context.Context, o opts) (outcome, error) {
	var out outcome
	var watch *runtimeWatch
	if o.traced {
		watch = watchRuntime()
	}
	s, err := startService(server.Config{})
	if err != nil {
		return out, err
	}
	defer s.close()
	catalog, err := s.catalog(ctx)
	if err != nil {
		return out, err
	}
	sched, err := schedule(o.seed, o.scale, o.seconds, catalog, o.traced)
	if err != nil {
		return out, err
	}
	var snap0 server.MetricsSnapshot
	// The measured window opens once warm-up traffic has drained; each
	// window request is timed from its due time.
	start := time.Now()
	warm := 0
	for warm < len(sched) && sched[warm].due < o.scale.warmup {
		warm++
	}
	drive(ctx, s, sched[:warm], start)
	if snap0, err = s.snapshot(ctx); err != nil {
		return out, err
	}
	a0 := heapAllocs()
	results := drive(ctx, s, sched[warm:], start)
	alloc := heapAllocs() - a0
	snap1, err := s.snapshot(ctx)
	if err != nil {
		return out, err
	}

	out.attempted = len(results)
	for _, r := range results {
		if r.err != nil {
			out.failed++
			fmt.Fprintf(errLog, "bench: request failed: %v\n", r.err)
		}
	}
	bad, err := replayOpen(ctx, results)
	if err != nil {
		return out, err
	}
	out.mismatches = bad
	out.failed += bad
	if !o.traced {
		out.v = values{
			"alloc_mb_per_op": float64(alloc) / float64(len(results)) / 1e6,
			"peak_rss_mb":     peakRSSMB(),
		}
		return out, nil
	}
	if err := s.close(); err != nil {
		return out, err
	}
	v := values{}
	watch.finish(v)
	serverLayers(results, snap0, snap1, o.seconds, v)
	if err := decomposeOpen(ctx, o, sched, v); err != nil {
		return out, err
	}
	out.attempted++
	out.v = v
	return out, nil
}

// replayOpen re-sends every response of the seeded replay sample to a fresh
// server with its memo and stream caches disabled: each answer, cold or
// memo hit, must match the uncached one byte for byte once re-encoded
// canonically. It returns the number of mismatches.
func replayOpen(ctx context.Context, results []openResult) (int, error) {
	ref, err := startService(uncachedConfig)
	if err != nil {
		return 0, err
	}
	defer ref.close()
	want := map[int][]byte{}
	bad := 0
	for _, r := range results {
		if !r.rq.replay || r.err != nil {
			continue
		}
		w, ok := want[r.rq.id]
		if !ok {
			b, err := ref.post(ctx, r.rq.path, r.rq.body)
			if err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
			if w, err = canonicalPayload(b); err != nil {
				return 0, err
			}
			want[r.rq.id] = w
		}
		got, err := canonicalPayload(r.body)
		if err != nil || !bytes.Equal(got, w) {
			bad++
			fmt.Fprintf(errLog, "bench: %s answer differs from an uncached server's: %s\n", r.rq.path, r.rq.body)
		}
	}
	return bad, nil
}

// serverLayers derives the service's per-layer metrics from the window's
// responses (spans of traced cold requests) and /metrics deltas.
func serverLayers(results []openResult, s0, s1 server.MetricsSnapshot, window time.Duration, v values) {
	var httpMS, kb, waitMS, matMS, engMS, asmMS, warm, cold, all, lag, overhead []float64
	var tracedCold, plainCold []float64
	for _, r := range results {
		if r.err != nil {
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		all = append(all, ms)
		lag = append(lag, float64(r.lag)/float64(time.Millisecond))
		httpMS = append(httpMS, float64(r.transport)/float64(time.Millisecond))
		kb = append(kb, float64(len(r.body))/1024)
		if r.cached {
			warm = append(warm, ms)
		}
		if !r.cold() {
			continue
		}
		cold = append(cold, ms)
		if !r.traced {
			plainCold = append(plainCold, ms)
			continue
		}
		tracedCold = append(tracedCold, ms)
		var mat, eng, asm, extent float64
		for _, sp := range r.spans {
			switch {
			case strings.HasPrefix(sp.Name, "materialize:"):
				mat += sp.DurationMS
			case sp.Name == "assemble":
				asm += sp.DurationMS
			default:
				eng += sp.DurationMS
			}
			extent = max(extent, sp.StartMS+sp.DurationMS)
		}
		matMS, engMS = append(matMS, mat), append(engMS, eng)
		waitMS = append(waitMS, float64(r.elapsed)/float64(time.Millisecond)-extent)
		if r.rq.sweep {
			asmMS = append(asmMS, asm)
			overhead = append(overhead, ratio(extent-mat-eng-asm, extent))
		}
	}
	v["server.warm_ms_p50"] = median(warm)
	v["server.http_ms_p50"] = median(httpMS)
	v["server.response_kb_p50"] = median(kb)
	v["server.wait_ms_p50"] = median(waitMS)
	v["server.materialize_ms_p50"] = median(matMS)
	v["server.engine_ms_p50"] = median(engMS)
	v["server.assemble_ms_p50"] = median(asmMS)
	v["experiments.overhead_share"] = median(overhead)
	hits, misses := s1.MemoHits-s0.MemoHits, s1.MemoMisses-s0.MemoMisses
	v["server.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	sh, sm := s1.StreamHits-s0.StreamHits, s1.StreamMisses-s0.StreamMisses
	v["server.stream_hit_ratio"] = ratio(float64(sh), float64(sh+sm))
	v["server.flight_join_ratio"] = ratio(float64(s1.FlightJoins-s0.FlightJoins), float64(misses))
	v["server.cold_p99_ms"] = percentile(cold, 99)
	v["server.all_p99_ms"] = percentile(all, 99)
	v["loadgen.lag_p99_ms"] = percentile(lag, 99)
	v["loadgen.offered_rps"] = float64(len(results)) / window.Seconds()
	v["op_p50_s"] = median(plainCold) / 1000
	v["bench.trace_overhead_frac"] = ratio(median(tracedCold), median(plainCold)) - 1
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "jobs.") {
			v[m.Name] = 0
		}
	}
}

// decomposeOpen splits serve-open's representative operation, the
// schedule's first cold evaluate request, into layers through public calls:
// generation (the mix drained to the request's limit), materialization
// (the server's hinted Collect), the engine (core.EvaluateRefsContext), and
// the service's own cost, read as the same request's memo-hit latency. The
// request itself is timed cold and warm on a fresh server. The sweep shape
// gives the experiments-layer speedup, and the engine classes are costed on
// both requests' streams.
func decomposeOpen(ctx context.Context, o opts, sched []openRequest, v values) error {
	var eval, sweep *openRequest
	for i := range sched {
		rq := &sched[i]
		if rq.sweep && sweep == nil {
			sweep = rq
		} else if !rq.sweep && eval == nil {
			eval = rq
		}
	}
	if eval == nil || sweep == nil {
		return fmt.Errorf("schedule has no evaluate or no sweep request")
	}
	var er server.EvaluateRequest
	if err := json.Unmarshal(eval.body, &er); err != nil {
		return err
	}
	er.Trace = false
	body, err := json.Marshal(er)
	if err != nil {
		return err
	}
	m, err := libraryMix(er.Mix)
	if err != nil {
		return err
	}
	var reps []evalTimes
	for i := 0; i < decomposeReps; i++ {
		t, err := evalLayers(ctx, m, er, eval.path, body)
		if err != nil {
			return err
		}
		reps = append(reps, t)
	}
	// Shares are taken within a repetition (see decompose).
	share := func(part func(evalTimes) time.Duration) float64 {
		return medianOver(reps, func(t evalTimes) float64 { return ratio(part(t).Seconds(), t.cold.Seconds()) })
	}
	v["workload.gen_ns_per_ref"] = medianOver(reps, func(t evalTimes) float64 {
		return ratio(float64(t.gen.Nanoseconds()), float64(t.refs))
	})
	v["workload.gen_share"] = share(func(t evalTimes) time.Duration { return t.gen })
	v["engine.share"] = share(func(t evalTimes) time.Duration { return t.eng })
	v["bench.layer_coverage"] = share(func(t evalTimes) time.Duration { return t.mat + t.eng + t.warm })

	var sr server.SweepRequest
	if err := json.Unmarshal(sweep.body, &sr); err != nil {
		return err
	}
	sm, err := libraryMix(sr.Mixes[0])
	if err != nil {
		return err
	}
	speedup, segmented, err := sweepSpeedup(ctx, []workload.Mix{sm}, sr.Sizes, sr.RefLimit)
	if err != nil {
		return err
	}
	v["experiments.speedup"] = speedup
	v["engine.parallel.segmented_passes"] = float64(segmented)
	return engineCosts(ctx, []workload.Mix{m, sm}, o.scale.microRefs, v)
}

// evalTimes is one measurement of an evaluate request's layers.
type evalTimes struct {
	gen, mat, eng, cold, warm time.Duration
	refs                      int64
}

// evalLayers measures an evaluate request's layers once: generation of
// the mix to the request's limit, the server's hinted materialization, the
// engine over the materialized stream, and the request itself, cold and
// then memo-hit, on a fresh server.
func evalLayers(ctx context.Context, m workload.Mix, er server.EvaluateRequest, path string, body []byte) (evalTimes, error) {
	var t evalTimes
	limited := func() (trace.Reader, error) {
		rd, err := m.Open()
		if err != nil {
			return nil, err
		}
		return trace.NewLimitReader(rd, er.RefLimit), nil
	}
	rd, err := limited()
	if err != nil {
		return t, err
	}
	if t.gen, t.refs, err = drainReader(rd); err != nil {
		return t, err
	}
	if rd, err = limited(); err != nil {
		return t, err
	}
	t0 := time.Now()
	refs, err := trace.Collect(rd, 0, min(er.RefLimit, m.TotalRefs()))
	if err != nil {
		return t, err
	}
	t.mat = time.Since(t0)
	repl, err := cache.ParseReplacement(er.Policy)
	if err != nil {
		return t, err
	}
	design := er.Design
	if design.Split {
		design.I.Repl, design.D.Repl = repl, repl
	} else {
		design.Unified.Repl = repl
	}
	t0 = time.Now()
	if _, err := core.EvaluateRefsContext(ctx, design, m.Name, refs); err != nil {
		return t, err
	}
	t.eng = time.Since(t0)

	s, err := startService(server.Config{})
	if err != nil {
		return t, err
	}
	t0 = time.Now()
	_, cerr := s.post(ctx, path, body)
	t.cold = time.Since(t0)
	t0 = time.Now()
	_, werr := s.post(ctx, path, body)
	t.warm = time.Since(t0)
	if err := s.close(); err != nil {
		return t, err
	}
	if cerr != nil || werr != nil {
		return t, fmt.Errorf("representative request: %v %v", cerr, werr)
	}
	return t, nil
}

// sweepSpeedup times one sweep shape through the experiments driver with
// one worker and with two, repeating each three times, and returns the
// ratio of medians and the passes the two-worker runs segmented.
func sweepSpeedup(ctx context.Context, mixes []workload.Mix, sizes []int, refLimit int) (float64, int, error) {
	var t1, t2 []time.Duration
	segmented := 0
	for i := 0; i < 3; i++ {
		for _, w := range []int{1, 2} {
			t0 := time.Now()
			res, err := experiments.SweepMixesContext(ctx, experiments.Options{Sizes: sizes, RefLimit: refLimit, Workers: w}, mixes)
			if err != nil {
				return 0, 0, err
			}
			d := time.Since(t0)
			if w == 1 {
				t1 = append(t1, d)
				continue
			}
			t2 = append(t2, d)
			for _, p := range res.Parallel {
				if !p.Info.FellBack && p.Info.Segments > 1 {
					segmented++
				}
			}
		}
	}
	return ratio(median(seconds(t1)), median(seconds(t2))), segmented, nil
}
