package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"cacheeval/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: the access log writes from the
// server's handler goroutines while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestMetricsPrometheus(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})

	// Drive one real simulation and one memo hit so the counters,
	// histograms, and the engine throughput family all have observations.
	body := `{"mix":"FGO1","ref_limit":20000}`
	for i := 0; i < 2; i++ {
		if code, b := post(t, hs.URL+"/v1/evaluate", body); code != http.StatusOK {
			t.Fatalf("evaluate status %d: %s", code, b)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", got)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, family := range []string{
		"cacheeval_requests_total",
		"cacheeval_errors_total",
		"cacheeval_evaluate_requests_total",
		"cacheeval_sweep_requests_total",
		"cacheeval_sim_runs_total",
		"cacheeval_sim_seconds_total",
		"cacheeval_memo_hits_total",
		"cacheeval_memo_hit_ratio",
		"cacheeval_worker_pool_capacity",
		"cacheeval_evaluate_duration_seconds",
		"cacheeval_sweep_duration_seconds",
		"cacheeval_engine_refs_total",
		"cacheeval_engine_refs_per_second",
		"cacheeval_jobs_requests_total",
		"cacheeval_jobs_created_total",
		"cacheeval_jobs_evicted_total",
		"cacheeval_jobs_events_emitted_total",
		"cacheeval_jobs_active",
		"cacheeval_jobs_queued",
		"cacheeval_jobs_held",
		"cacheeval_jobs_subscribers",
		"cacheeval_go_goroutines",
		"cacheeval_go_heap_inuse_bytes",
		"cacheeval_go_gc_pause_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("family %s missing from exposition", family)
		}
	}
	if strings.Contains(text, "cacheeval_stream_") {
		t.Error("exposition still carries the deleted cacheeval_stream_* series")
	}
	// The simulation above must have landed in the engine metrics via the
	// server's sink and in the request latency histogram.
	for _, line := range []string{
		"cacheeval_sim_runs_total 1",
		"cacheeval_memo_hits_total 1",
		"cacheeval_engine_refs_total 20000",
		"cacheeval_evaluate_duration_seconds_count 2",
		`cacheeval_engine_refs_per_second_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("expected sample %q in exposition", line)
		}
	}
}

func TestMetricsRatiosBounded(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{})
	// Zero-traffic snapshot: every ratio/average must be 0, not NaN.
	for name, v := range map[string]float64{
		"memo_hit_ratio":  s.snapshot().MemoHitRatio,
		"sim_seconds_avg": s.snapshot().SimSecondsAvg,
	} {
		if v != 0 {
			t.Errorf("idle %s = %v, want 0", name, v)
		}
	}
	body := `{"mix":"FGO1","ref_limit":20000}`
	for i := 0; i < 3; i++ {
		if code, b := post(t, hs.URL+"/v1/evaluate", body); code != http.StatusOK {
			t.Fatalf("evaluate status %d: %s", code, b)
		}
	}
	snap := s.snapshot()
	if v := snap.MemoHitRatio; v < 0 || v > 1 {
		t.Errorf("memo_hit_ratio = %v, want within [0,1]", v)
	}
	if snap.MemoHitRatio == 0 {
		t.Error("memo hit ratio 0 after repeated identical requests")
	}
	if snap.SimSecondsAvg <= 0 || snap.EvaluateSecondsAvg <= 0 {
		t.Errorf("averages not derived: sim=%v evaluate=%v", snap.SimSecondsAvg, snap.EvaluateSecondsAvg)
	}
	// The JSON exposition carries the derived fields too.
	_, b := get(t, hs.URL+"/metrics?format=json")
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"memo_hit_ratio", "sim_seconds_avg",
		"evaluate_seconds_avg", "sweep_seconds_avg"} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON metrics missing %q", k)
		}
	}
	for k := range m {
		if strings.HasPrefix(k, "stream_") {
			t.Errorf("JSON metrics still carry the deleted %q", k)
		}
	}
}

// TestRequestIDPropagation pins the middleware contract: a valid client
// X-Request-ID is honoured and echoed, it labels both the access log line
// and the log lines emitted deep inside the simulation flight, and an
// invalid one is replaced rather than reflected.
func TestRequestIDPropagation(t *testing.T) {
	t.Parallel()
	logs := &syncBuffer{}
	_, hs := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(logs, nil)),
	})

	const rid = "client-rid-42"
	req, err := http.NewRequest("POST", hs.URL+"/v1/evaluate",
		strings.NewReader(`{"mix":"FGO1","ref_limit":20000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Errorf("echoed request ID %q, want %q", got, rid)
	}

	var access, simStart bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		if entry["request_id"] != rid {
			continue
		}
		switch entry["msg"] {
		case "request":
			access = true
			if entry["path"] != "/v1/evaluate" || entry["status"] != float64(200) {
				t.Errorf("access log fields wrong: %v", entry)
			}
		case "evaluate: simulation start":
			simStart = true
		}
	}
	if !access {
		t.Errorf("no access log line carried request_id %q:\n%s", rid, logs.String())
	}
	if !simStart {
		t.Errorf("simulation-start log line did not inherit request_id %q:\n%s", rid, logs.String())
	}

	// An injection-shaped request ID must be replaced with a generated one.
	req, err = http.NewRequest("GET", hs.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.Contains(got, " ") || strings.Contains(got, "\n") {
		t.Errorf("invalid client ID not replaced: %q", got)
	}
}

// TestEvaluateTrace exercises the opt-in per-stage timing breakdown: an
// exact evaluate reads the generator inside its one simulation span (no
// materialize span), a sampled evaluate materializes its stream first, a
// memoized answer returns the producing run's spans, and requests that do
// not opt in get no trace even when the memo holds one.
func TestEvaluateTrace(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})

	eval := func(body string) EvaluateResponse {
		t.Helper()
		code, b := post(t, hs.URL+"/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := eval(`{"mix":"FGO1","ref_limit":20000,"trace":true}`).Trace
	if len(first) != 1 || first[0].Name != "simulate:FGO1" {
		t.Fatalf("exact evaluate spans %+v, want exactly simulate:FGO1", first)
	}
	if sp := first[0]; sp.Refs != 20000 || sp.DurationMS <= 0 {
		t.Errorf("simulate span refs=%d duration=%vms, want 20000 refs and positive duration", sp.Refs, sp.DurationMS)
	}
	sampled := eval(`{"mix":"FGO1","ref_limit":60000,"mode":"sampled","error_budget":0.05,"trace":true}`).Trace
	if len(sampled) == 0 || sampled[0].Name != "materialize:FGO1" || sampled[0].Refs != 60000 {
		t.Errorf("sampled evaluate spans %+v, want materialize:FGO1 over 60000 refs first", sampled)
	}

	// Same request without trace: memo hit, no trace in the response.
	second := eval(`{"mix":"FGO1","ref_limit":20000}`)
	if !second.Cached {
		t.Error("trace flag changed the memo key: identical request not cached")
	}
	if len(second.Trace) != 0 {
		t.Errorf("untraced request returned %d spans", len(second.Trace))
	}

	// Opting in on a memo hit returns the original run's spans.
	third := eval(`{"mix":"FGO1","ref_limit":20000,"trace":true}`)
	if !third.Cached || len(third.Trace) == 0 {
		t.Errorf("memoized trace request: cached=%v spans=%d, want cached with spans", third.Cached, len(third.Trace))
	}
}

// TestSweepTrace pins a sweep's spans on both paths: an LRU sweep streams
// from the generator (one job span, then assembly, no materialize span);
// an ARC sweep runs the per-size engine over one materialized stream.
func TestSweepTrace(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	names := func(body string) []string {
		t.Helper()
		code, b := post(t, hs.URL+"/v1/sweep", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
		var res SweepResponse
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sp := range res.Trace {
			got = append(got, sp.Name)
		}
		return got
	}
	got := names(`{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000,"trace":true}`)
	if want := []string{"sweep:FGO1", "assemble"}; !slices.Equal(got, want) {
		t.Errorf("LRU sweep spans %v, want %v", got, want)
	}
	got = names(`{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000,"policy":"arc","trace":true}`)
	want := []string{
		"materialize:FGO1",
		"sweep:FGO1:demand:split",
		"sweep:FGO1:demand:unified",
		"sweep:FGO1:prefetch:split",
		"sweep:FGO1:prefetch:unified",
		"assemble",
	}
	if !slices.Equal(got, want) {
		t.Errorf("ARC sweep spans %v, want %v", got, want)
	}
}
