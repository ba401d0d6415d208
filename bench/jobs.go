package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cacheeval/internal/experiments"
	"cacheeval/internal/jobs"
	"cacheeval/internal/model"
	"cacheeval/internal/server"
	"cacheeval/internal/workload"
)

// jobs-stream is a closed loop of two clients, each submitting a job
// (POST /v1/jobs) and reading its NDJSON event stream to "done" before
// submitting the next. Every job sweeps two of the twelve single-trace
// standard mixes, at their full paper length, over eight of the twelve grid
// sizes. The seed pairs the traces, orders the pairs, and deals each job its
// sizes; job k sweeps pair k mod 6. A trace therefore recurs every sixth
// job, and by then the jobs between have put at least eight other streams
// through the server's 8-entry stream cache: every job materializes both of
// its streams however the two clients interleave, where a shorter rotation
// would hit or miss depending on timing. Pairs are matched by length — the
// two 500k-reference traces each with a 250k one — so the run's population
// of jobs costs the same at every seed. No job repeats a request, so each
// misses the memo. After each job its client resubmits the identical
// request once: a memo hit (accepted, started, summary, done), the async
// warm path.

const jobClients = 2

// jobPlan is the run's seeded sequence of distinct sweep requests, shared
// by the clients in submission order.
type jobPlan struct {
	reqs  []server.SweepRequest
	pairs int // job k sweeps pair k mod pairs
	next  atomic.Int64
}

// jobSizes is how many of the grid sizes a job sweeps.
const jobSizes = 8

func newJobPlan(seed uint64, refLimit int) *jobPlan {
	r := rand.New(rand.NewPCG(seed, 0x6a6f6273))
	var singles []workload.Mix
	for _, m := range workload.StandardMixes() {
		if len(m.Specs) == 1 {
			singles = append(singles, m)
		}
	}
	r.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	sort.SliceStable(singles, func(i, j int) bool { return singles[i].TotalRefs() < singles[j].TotalRefs() })
	var pairs [][]string
	for i, j := 0, len(singles)-1; i < j; i, j = i+1, j-1 {
		pair := []string{singles[i].Name, singles[j].Name}
		if r.IntN(2) == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		pairs = append(pairs, pair)
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	// Every 8-of-12 subset of the grid sizes, in a seeded order: job k
	// takes the k-th, so no two jobs share a request.
	var subsets [][]int
	n := len(model.CacheSizes)
	for mask := 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) != jobSizes {
			continue
		}
		var sizes []int
		for i, size := range model.CacheSizes {
			if mask&(1<<i) != 0 {
				sizes = append(sizes, size)
			}
		}
		subsets = append(subsets, sizes)
	}
	r.Shuffle(len(subsets), func(i, j int) { subsets[i], subsets[j] = subsets[j], subsets[i] })
	p := &jobPlan{pairs: len(pairs)}
	for k, sizes := range subsets {
		p.reqs = append(p.reqs, server.SweepRequest{Mixes: pairs[k%len(pairs)], Sizes: sizes, RefLimit: refLimit})
	}
	return p
}

// take returns the next request and its index, or false when the plan is
// used up.
func (p *jobPlan) take() (server.SweepRequest, int, bool) {
	i := int(p.next.Add(1)) - 1
	if i >= len(p.reqs) {
		return server.SweepRequest{}, i, false
	}
	return p.reqs[i], i, true
}

// jobRun is one job as its client saw it; times are from submission.
type jobRun struct {
	accept, headers, first, done time.Duration
	events                       int
	streamBytes                  int64
	missed                       uint64
	lags                         []float64 // ms, each event's receipt after its publication
	summary                      []byte
	mismatches                   int
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// runJob submits one sweep job and reads its event stream to the end. It
// checks that every streamed cell equals the summary's and, for a job that
// must compute (cold, not a memo hit), that the stream holds the whole grid.
func runJob(ctx context.Context, s *service, req server.SweepRequest, cold bool) (jobRun, error) {
	var jr jobRun
	body, err := json.Marshal(server.JobRequest{Sweep: &req})
	if err != nil {
		return jr, err
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t0 := time.Now()
	b, err := s.post(ctx, "/v1/jobs", body)
	if err != nil {
		return jr, err
	}
	jr.accept = time.Since(t0)
	var acc server.JobAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		return jr, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+acc.EventsURL, nil)
	if err != nil {
		return jr, err
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return jr, err
	}
	defer resp.Body.Close()
	jr.headers = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("events: %s", resp.Status)
	}
	cr := &countingReader{r: resp.Body}
	dec := json.NewDecoder(cr)
	var cells []server.JobCellOut
	for {
		var ev jobs.Event
		if err := dec.Decode(&ev); err != nil {
			return jr, fmt.Errorf("job %s stream ended without done: %w", acc.ID, err)
		}
		at := time.Since(t0)
		jr.events++
		jr.lags = append(jr.lags, float64(at)/float64(time.Millisecond)-ev.ElapsedMS)
		switch ev.Type {
		case "cell":
			if jr.first == 0 {
				jr.first = at
			}
			var c server.JobCellOut
			if err := json.Unmarshal(ev.Data, &c); err != nil {
				return jr, err
			}
			cells = append(cells, c)
		case jobs.EventGap:
			var g struct {
				Missed uint64 `json:"missed"`
			}
			if err := json.Unmarshal(ev.Data, &g); err != nil {
				return jr, err
			}
			jr.missed += g.Missed
		case jobs.EventSummary:
			jr.summary = ev.Data
		case jobs.EventFailed, jobs.EventCanceled:
			return jr, fmt.Errorf("job %s %s: %s", acc.ID, ev.Type, ev.Data)
		case jobs.EventDone:
			jr.done = at
			jr.streamBytes = cr.n
			if jr.summary == nil {
				return jr, fmt.Errorf("job %s done without a summary", acc.ID)
			}
			jr.mismatches, err = checkCells(req, cells, jr.summary, cold)
			return jr, err
		}
	}
}

// checkCells compares a job's streamed cells with its summary. A cold job
// must stream the whole grid; a memo hit streams none or all of it.
func checkCells(req server.SweepRequest, cells []server.JobCellOut, summary []byte, cold bool) (int, error) {
	var sum struct {
		Mixes []string                       `json:"mixes"`
		Sizes []int                          `json:"sizes"`
		Cells [][]map[string]json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(summary, &sum); err != nil {
		return 0, err
	}
	if len(sum.Cells) != len(req.Mixes) {
		return 1, nil
	}
	bad := 0
	if grid := 4 * len(req.Mixes) * len(req.Sizes); len(cells) != grid && (cold || len(cells) != 0) {
		bad++
		fmt.Fprintf(errLog, "bench: job streamed %d cells for a %dx%d grid\n", len(cells), len(req.Mixes), len(req.Sizes))
	}
	for _, c := range cells {
		mi, si := indexOf(sum.Mixes, c.Mix), indexOf(sum.Sizes, c.Size)
		if mi < 0 || si < 0 || mi >= len(sum.Cells) || si >= len(sum.Cells[mi]) {
			bad++
			continue
		}
		variant := map[[2]bool]string{{true, false}: "split_demand", {true, true}: "split_prefetch",
			{false, false}: "unified_demand", {false, true}: "unified_prefetch"}[[2]bool{c.Split, c.Prefetch}]
		streamed, err := json.Marshal(c.Result)
		if err != nil {
			return 0, err
		}
		a, err := canonical(streamed)
		if err != nil {
			return 0, err
		}
		b, err := canonical(sum.Cells[mi][si][variant])
		if err != nil || !bytes.Equal(a, b) {
			bad++
			fmt.Fprintf(errLog, "bench: streamed cell %s/%d/%s differs from the summary\n", c.Mix, c.Size, variant)
		}
	}
	return bad, nil
}

func indexOf[T comparable](xs []T, x T) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

// jobSample is what the window collects from both clients.
type jobSample struct {
	mu         sync.Mutex
	cold, warm []jobRun
	reqs       []server.SweepRequest
	traced     []bool
	failed     int
	attempted  int
	mismatches int
}

func runJobsStream(ctx context.Context, o opts) (outcome, error) {
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
	plan := newJobPlan(o.seed, o.scale.jobRefLimit)
	// Warm-up: one job per client, untimed, so lazy set-up and the first
	// heap growth fall outside the window.
	var warmup, smp jobSample
	clientLoop(ctx, s, plan, &warmup, time.Now(), 0, 1, o.traced)
	snap0, err := s.snapshot(ctx)
	if err != nil {
		return out, err
	}
	a0 := heapAllocs()
	clientLoop(ctx, s, plan, &smp, time.Now(), o.seconds, o.scale.minOps, o.traced)
	alloc := heapAllocs() - a0
	snap1, err := s.snapshot(ctx)
	if err != nil {
		return out, err
	}
	bad, err := replayJobs(ctx, o.seed, smp.reqs, smp.cold)
	if err != nil {
		return out, err
	}
	out.attempted = smp.attempted
	out.mismatches = smp.mismatches + bad
	out.failed = smp.failed + bad
	if len(smp.cold) == 0 {
		return out, fmt.Errorf("no job completed")
	}
	if !o.traced {
		out.v = values{
			"alloc_mb_per_op": float64(alloc) / float64(len(smp.cold)) / 1e6,
			"peak_rss_mb":     peakRSSMB(),
		}
		return out, nil
	}
	if err := s.close(); err != nil {
		return out, err
	}
	v := values{}
	watch.finish(v)
	jobLayers(&smp, snap0, snap1, v)
	if err := decomposeJob(ctx, o, smp.reqs[0], v); err != nil {
		return out, err
	}
	out.attempted++
	out.v = v
	return out, nil
}

// clientLoop runs the closed loop: jobClients clients, each submitting a
// job, then its identical resubmission, then the next job, until the window
// ends (each client completes at least minJobs jobs). Traced runs set
// "trace" on the jobs of every other round of pairs, so traced and untraced
// jobs sweep the same pairs.
func clientLoop(ctx context.Context, s *service, plan *jobPlan, smp *jobSample, start time.Time, window time.Duration, minJobs int, traced bool) {
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < minJobs || time.Since(start) < window; n++ {
				req, i, ok := plan.take()
				if !ok {
					return
				}
				withTrace := traced && i/plan.pairs%2 == 1
				req.Trace = withTrace
				cold, cerr := runJob(ctx, s, req, true)
				var warm jobRun
				werr := cerr
				if cerr == nil {
					warm, werr = runJob(ctx, s, req, false)
				}
				smp.mu.Lock()
				smp.attempted += 2
				switch {
				case cerr != nil:
					smp.failed += 2
					fmt.Fprintf(errLog, "bench: job failed: %v\n", cerr)
				case werr != nil:
					smp.failed++
					fmt.Fprintf(errLog, "bench: resubmitted job failed: %v\n", werr)
				default:
					smp.cold, smp.warm = append(smp.cold, cold), append(smp.warm, warm)
					smp.reqs, smp.traced = append(smp.reqs, req), append(smp.traced, withTrace)
					if !summariesEqual(cold.summary, warm.summary) {
						warm.mismatches++
						fmt.Fprintf(errLog, "bench: memo-hit job summary differs from the computed one\n")
					}
					for _, j := range []jobRun{cold, warm} {
						smp.mismatches += j.mismatches
						if j.mismatches > 0 {
							smp.failed++
						}
					}
				}
				smp.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// summariesEqual compares two summary payloads canonically.
func summariesEqual(a, b []byte) bool {
	ca, err := canonical(a)
	if err != nil {
		return false
	}
	cb, err := canonical(b)
	return err == nil && bytes.Equal(ca, cb)
}

// replayJobs re-runs a seeded ~2% sample of the window's jobs (at least
// one) synchronously, through POST /v1/sweep on a fresh server with no memo
// and no stream cache: each job's summary must equal the uncached answer.
func replayJobs(ctx context.Context, seed uint64, reqs []server.SweepRequest, runs []jobRun) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	ref, err := startService(uncachedConfig)
	if err != nil {
		return 0, err
	}
	defer ref.close()
	r := rand.New(rand.NewPCG(seed, 0x7265706c))
	picks := map[int]bool{r.IntN(len(reqs)): true}
	for i := range reqs {
		if r.Float64() < replayShare {
			picks[i] = true
		}
	}
	bad := 0
	for i := range reqs {
		if !picks[i] {
			continue
		}
		req := reqs[i]
		req.Trace = false
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		b, err := ref.post(ctx, "/v1/sweep", body)
		if err != nil {
			return 0, fmt.Errorf("replay: %w", err)
		}
		want, err := canonicalPayload(b)
		if err != nil {
			return 0, err
		}
		got, err := canonicalPayload(runs[i].summary)
		if err != nil || !bytes.Equal(got, want) {
			bad++
			fmt.Fprintf(errLog, "bench: job summary differs from an uncached /v1/sweep: %s\n", body)
		}
	}
	return bad, nil
}

// jobLayers derives the job path's per-layer metrics from the window.
func jobLayers(smp *jobSample, s0, s1 server.MetricsSnapshot, v values) {
	var accept, headers, first, lag, events, kb, done, warm, plain, traced []float64
	var missed uint64
	for i, j := range smp.cold {
		accept = append(accept, float64(j.accept)/float64(time.Millisecond))
		headers = append(headers, float64(j.headers)/float64(time.Millisecond))
		if j.first > 0 {
			first = append(first, float64(j.first)/float64(time.Millisecond))
		}
		lag = append(lag, j.lags...)
		events = append(events, float64(j.events))
		kb = append(kb, float64(j.streamBytes)/1024)
		ms := float64(j.done) / float64(time.Millisecond)
		done = append(done, ms)
		missed += j.missed
		if smp.traced[i] {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	v["jobs.accept_ms_p50"] = median(accept)
	v["jobs.headers_ms_p50"] = median(headers)
	for _, j := range smp.warm {
		warm = append(warm, float64(j.done)/float64(time.Millisecond))
	}
	v["jobs.first_result_ms_p50"] = median(first)
	v["server.warm_ms_p50"] = median(warm)
	v["jobs.delivery_lag_ms_p50"] = median(lag)
	v["jobs.events_per_job"] = median(events)
	v["jobs.stream_kb_per_job"] = median(kb)
	v["jobs.dropped_events"] = float64(missed)
	v["jobs.op_p90_ms"] = percentile(done, 90)
	v["op_p50_s"] = median(plain) / 1000
	v["bench.trace_overhead_frac"] = ratio(median(traced), median(plain)) - 1
	hits, misses := s1.MemoHits-s0.MemoHits, s1.MemoMisses-s0.MemoMisses
	v["server.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	sh, sm := s1.StreamHits-s0.StreamHits, s1.StreamMisses-s0.StreamMisses
	v["server.stream_hit_ratio"] = ratio(float64(sh), float64(sh+sm))
	v["server.flight_join_ratio"] = ratio(float64(s1.FlightJoins-s0.FlightJoins), float64(misses))
	// The job path returns no spans and no per-request elapsed time, and
	// the load is a closed loop: those server and load-generator layers
	// report 0 here.
	for _, name := range []string{"server.http_ms_p50", "server.response_kb_p50", "server.wait_ms_p50",
		"server.materialize_ms_p50", "server.engine_ms_p50", "server.assemble_ms_p50",
		"server.cold_p99_ms", "server.all_p99_ms", "loadgen.lag_p99_ms", "loadgen.offered_rps"} {
		v[name] = 0
	}
}

// decomposeJob splits the window's first job into layers: the sweep it
// runs, decomposed serially through the experiments driver and the engine
// registry exactly as a grid op is (the server runs job sweeps on one
// worker), and the job service's own cost, read as the same job's memo-hit
// latency on a fresh server; the job itself is timed cold there.
func decomposeJob(ctx context.Context, o opts, req server.SweepRequest, v values) error {
	req.Trace = false
	var mixes []workload.Mix
	for _, name := range req.Mixes {
		m, err := libraryMix(name)
		if err != nil {
			return err
		}
		mixes = append(mixes, m)
	}
	// Each repetition pairs a decomposition with the job timed moments
	// later; shares are taken within a repetition (see decompose).
	type rep struct {
		l          layers
		cold, warm time.Duration
	}
	so := experiments.Options{Sizes: req.Sizes, RefLimit: req.RefLimit}
	var reps []rep
	for i := 0; i < decomposeReps; i++ {
		l, err := decomposeOnce(ctx, []experiments.Options{so}, mixes)
		if err != nil {
			return err
		}
		if l.mismatches > 0 {
			return fmt.Errorf("representative job: %d output mismatches", l.mismatches)
		}
		c, w, err := jobTimes(ctx, req)
		if err != nil {
			return err
		}
		reps = append(reps, rep{l, c, w})
	}
	share := func(part func(rep) time.Duration) float64 {
		return medianOver(reps, func(r rep) float64 { return ratio(part(r).Seconds(), r.cold.Seconds()) })
	}
	v["workload.gen_ns_per_ref"] = medianOver(reps, func(r rep) float64 { return r.l.genNsPerRef() })
	v["workload.gen_share"] = share(func(r rep) time.Duration { return r.l.gen })
	v["engine.share"] = share(func(r rep) time.Duration { return r.l.eng })
	v["experiments.overhead_share"] = medianOver(reps, func(r rep) float64 { return r.l.overheadShare() })
	v["bench.layer_coverage"] = share(func(r rep) time.Duration { return r.l.mat + r.l.eng + r.warm })
	speedup, segmented, err := sweepSpeedup(ctx, mixes, req.Sizes, req.RefLimit)
	if err != nil {
		return err
	}
	v["experiments.speedup"] = speedup
	v["engine.parallel.segmented_passes"] = float64(segmented)
	return engineCosts(ctx, mixes, o.scale.microRefs, v)
}

// jobTimes runs one job cold and then memo-hit on a fresh server and
// returns both completion times.
func jobTimes(ctx context.Context, req server.SweepRequest) (cold, warm time.Duration, err error) {
	s, err := startService(server.Config{})
	if err != nil {
		return 0, 0, err
	}
	c, cerr := runJob(ctx, s, req, true)
	w, werr := runJob(ctx, s, req, false)
	if err := s.close(); err != nil {
		return 0, 0, err
	}
	if cerr != nil || werr != nil {
		return 0, 0, fmt.Errorf("representative job: %v %v", cerr, werr)
	}
	if c.mismatches+w.mismatches > 0 {
		return 0, 0, fmt.Errorf("representative job: %d output mismatches", c.mismatches+w.mismatches)
	}
	return c.done, w.done, nil
}
