package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// newTestServer builds a server + httptest listener and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// post sends a JSON body and returns the status code and response bytes.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHandlerErrors(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad json", "POST", "/v1/evaluate", "{not json", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/evaluate", `{"mixx":"FGO1"}`, http.StatusBadRequest},
		{"unknown mix", "POST", "/v1/evaluate", `{"mix":"NOPE"}`, http.StatusBadRequest},
		{"negative ref limit", "POST", "/v1/evaluate", `{"mix":"FGO1","ref_limit":-1}`, http.StatusBadRequest},
		{"invalid design", "POST", "/v1/evaluate",
			`{"mix":"FGO1","design":{"Unified":{"Size":12345,"LineSize":16}}}`, http.StatusBadRequest},
		{"oversized body", "POST", "/v1/evaluate",
			`{"mix":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
		{"sweep unknown mix", "POST", "/v1/sweep", `{"mixes":["NOPE"]}`, http.StatusBadRequest},
		{"sweep bad size", "POST", "/v1/sweep", `{"mixes":["FGO1"],"sizes":[-4]}`, http.StatusBadRequest},
		{"unknown policy", "POST", "/v1/evaluate", `{"mix":"FGO1","policy":"clock"}`, http.StatusBadRequest},
		{"unknown fetch", "POST", "/v1/evaluate", `{"mix":"FGO1","fetch":"never"}`, http.StatusBadRequest},
		{"out-of-range numeric repl", "POST", "/v1/evaluate",
			`{"mix":"FGO1","design":{"Unified":{"Size":1024,"LineSize":16,"Repl":9}}}`, http.StatusBadRequest},
		{"sweep unknown policy", "POST", "/v1/sweep", `{"mixes":["FGO1"],"policy":"belady"}`, http.StatusBadRequest},
		{"parallel on evaluate", "POST", "/v1/evaluate", `{"mix":"FGO1","parallel":2}`, http.StatusBadRequest},
		{"wrong method policies", "POST", "/v1/policies", "", http.StatusMethodNotAllowed},
		{"wrong method evaluate", "GET", "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"wrong method mixes", "POST", "/v1/mixes", "", http.StatusMethodNotAllowed},
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	// The rejections whose error message must name what was wrong.
	wantMsg := map[string]string{
		"parallel on evaluate": `"parallel"`,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: got status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if msg, ok := wantMsg[tc.name]; ok {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, msg) {
					t.Errorf("%s %s: error %s does not name %s", tc.method, tc.path, b, msg)
				}
			}
		})
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{})
	body := `{"mix":"FGO1","ref_limit":20000}`

	code, b := post(t, hs.URL+"/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var first EvaluateResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.Report.Refs != 20000 {
		t.Errorf("got %d refs, want 20000", first.Report.Refs)
	}
	if first.Report.MissRatio <= 0 || first.Report.MissRatio >= 1 {
		t.Errorf("implausible miss ratio %v", first.Report.MissRatio)
	}

	// The identical request again must be a memoization hit with the same
	// report, visible in /metrics.
	code, b = post(t, hs.URL+"/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var second EvaluateResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical request was not memoized")
	}
	if second.Report != first.Report {
		t.Errorf("memoized report differs:\n%+v\n%+v", second.Report, first.Report)
	}
	snap := s.snapshot()
	if snap.MemoHits != 1 || snap.MemoMisses != 1 || snap.SimRuns != 1 {
		t.Errorf("metrics: %+v, want 1 hit / 1 miss / 1 run", snap)
	}
	if snap.SimSeconds <= 0 {
		t.Errorf("sim_seconds not accounted: %+v", snap)
	}
	if snap.EvaluateRequests != 2 || snap.SweepRequests != 0 {
		t.Errorf("endpoint counters: %+v, want 2 evaluate / 0 sweep", snap)
	}
	if snap.EvaluateNsTotal <= 0 || snap.SweepNsTotal != 0 {
		t.Errorf("endpoint timers: %+v, want evaluate_ns_total > 0 only", snap)
	}

	// A different ref_limit is a different key.
	code, b = post(t, hs.URL+"/v1/evaluate", `{"mix":"FGO1","ref_limit":10000}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var third EvaluateResponse
	if err := json.Unmarshal(b, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different request reported cached")
	}
}

func TestSingleflightDedup(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{MaxConcurrent: 2})
	const clients = 8
	body := `{"mix":"VSPICE","ref_limit":200000}`
	var wg sync.WaitGroup
	codes := make([]int, clients)
	shared := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var er EvaluateResponse
			if json.NewDecoder(resp.Body).Decode(&er) == nil {
				shared[i] = er.Shared || er.Cached
			}
		}(i)
	}
	wg.Wait()
	joined := 0
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, code)
		}
		if shared[i] {
			joined++
		}
	}
	snap := s.snapshot()
	if snap.SimRuns != 1 {
		t.Errorf("%d simulations ran for %d identical concurrent requests, want 1 (metrics %+v)",
			snap.SimRuns, clients, snap)
	}
	if snap.FlightJoins+snap.MemoHits != clients-1 {
		t.Errorf("joins+hits = %d, want %d (metrics %+v)",
			snap.FlightJoins+snap.MemoHits, clients-1, snap)
	}
	if joined != clients-1 {
		t.Errorf("%d clients reported shared/cached, want %d", joined, clients-1)
	}
}

// TestFreshFlightReplacesAbandoned covers the window between a flight's
// last waiter leaving (which cancels it) and the flight unwinding: a new
// caller for the same key must start a fresh flight instead of joining the
// cancelled one and failing with its context error, and the abandoned
// flight must not unregister its replacement when it finally returns.
func TestFreshFlightReplacesAbandoned(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	defer s.Close()
	const key = "k"
	started, unwinding, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, _, _, err := s.do(ctx1, key, func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			close(unwinding)
			<-release
			return nil, fctx.Err()
		})
		first <- err
	}()
	<-started
	s.mu.Lock()
	old := s.flights[key]
	s.mu.Unlock()
	cancel1()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}
	<-unwinding // cancelled, not yet returned

	type result struct {
		val    any
		shared bool
		err    error
	}
	gate := make(chan struct{})
	fresh := func(context.Context) (any, error) { <-gate; return "fresh", nil }
	second := make(chan result, 1)
	go func() {
		v, _, shared, err := s.do(context.Background(), key, fresh)
		second <- result{v, shared, err}
	}()
	current := func() (*flight, int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if f := s.flights[key]; f != nil {
			return f, f.waiters
		}
		return nil, 0
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if f, _ := current(); f != old {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("a new caller joined the abandoned flight: %+v", <-second)
		}
	}

	close(release)
	<-old.done
	if f, _ := current(); f == nil {
		t.Fatal("the abandoned flight unregistered its replacement")
	}
	third := make(chan result, 1)
	go func() {
		v, _, shared, err := s.do(context.Background(), key, fresh)
		third <- result{v, shared, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, waiters := current(); waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a third caller did not join the fresh flight")
		}
	}
	close(gate)
	if r := <-second; r.err != nil || r.val != "fresh" || r.shared {
		t.Errorf("patient caller got %+v, want the fresh flight's value, unshared", r)
	}
	if r := <-third; r.err != nil || r.val != "fresh" || !r.shared {
		t.Errorf("third caller got %+v, want the fresh flight's value, shared", r)
	}
}

func TestSweepEndToEnd(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{})
	body := `{"mixes":["FGO1","CGO1"],"sizes":[1024,4096],"ref_limit":20000}`
	code, b := post(t, hs.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var res SweepResponse
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Cells[0]) != 2 {
		t.Fatalf("cells shape %dx%d, want 2x2", len(res.Cells), len(res.Cells[0]))
	}
	for mi, row := range res.Cells {
		for si, cell := range row {
			if cell.UnifiedDemand.MissRatio <= 0 {
				t.Errorf("cell[%d][%d] empty: %+v", mi, si, cell)
			}
		}
	}
	// Bigger cache must not miss more on the same workload.
	if res.Cells[0][1].UnifiedDemand.MissRatio > res.Cells[0][0].UnifiedDemand.MissRatio {
		t.Errorf("4K misses more than 1K: %+v", res.Cells[0])
	}
	snap := s.snapshot()
	if snap.SweepRequests != 1 || snap.SweepNsTotal <= 0 {
		t.Errorf("sweep endpoint metrics: %+v, want 1 request with time accounted", snap)
	}
}

// TestCancellationMidSweep exercises the tentpole deadline path: a sweep big
// enough to run for seconds gets a ~1ms deadline, must come back promptly
// with 504, and must not leak its worker goroutines (the abandoned flight is
// cancelled once its last waiter gives up).
func TestCancellationMidSweep(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	body := `{"ref_limit":2000000,"timeout_ms":1}` // all 17 standard mixes: seconds of work
	start := time.Now()
	code, b := post(t, hs.URL+"/v1/sweep", body)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, b)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if snap := s.snapshot(); snap.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (metrics %+v)", snap.Timeouts, snap)
	}

	// The abandoned simulation must wind down: goroutine count returns to
	// its pre-request neighbourhood instead of holding a running sweep, and
	// the flight gives back its worker slot. The handler answers 504 before
	// the flight goroutine has seen the cancellation, so both settle
	// asynchronously, a few milliseconds apart, in either order.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Drop keep-alive connection goroutines (client read/write loops and
		// the server's conn handler) so only simulation leaks would remain.
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		n, inFlight := runtime.NumGoroutine(), s.snapshot().InFlight
		if n <= before+2 && inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			if n > before+2 {
				t.Errorf("goroutines leaked after cancellation: before=%d now=%d", before, n)
			}
			if inFlight != 0 {
				t.Errorf("in_flight = %d after cancellation, want 0", inFlight)
			}
			t.Fatalf("cancelled sweep did not settle within 5s\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestMixesHealthzMetrics(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	code, b := get(t, hs.URL+"/v1/mixes")
	if code != http.StatusOK {
		t.Fatalf("mixes status %d", code)
	}
	var mixes struct {
		Mixes []MixInfo `json:"mixes"`
	}
	if err := json.Unmarshal(b, &mixes); err != nil {
		t.Fatal(err)
	}
	// 49 corpus traces + 8 LISPC/VAXIMA section units + 4 multiprogram mixes.
	if len(mixes.Mixes) < 57 {
		t.Errorf("catalog has %d mixes, want >= 57", len(mixes.Mixes))
	}
	seen := map[string]bool{}
	for _, m := range mixes.Mixes {
		if seen[m.Name] {
			t.Errorf("duplicate catalog entry %q", m.Name)
		}
		seen[m.Name] = true
	}
	for _, want := range []string{"FGO1", "LISPC", "LISPC-3", "Z8000 - Assorted", "M68000 - Assorted"} {
		if !seen[want] {
			t.Errorf("catalog missing %q", want)
		}
	}

	code, b = get(t, hs.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", code, b)
	}

	code, b = get(t, hs.URL+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics not parseable: %v\n%s", err, b)
	}
	if snap.Requests < 2 {
		t.Errorf("requests = %d, want >= 2", snap.Requests)
	}

	code, b = get(t, hs.URL+"/metrics?format=nope")
	if code != http.StatusBadRequest {
		t.Errorf("unknown metrics format: status %d (%s), want 400", code, b)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	t.Parallel()
	c := newMemoLRU(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes oldest
		t.Fatal("a missing")
	}
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || v.(int) != 3 {
		t.Error("c lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Disabled cache never stores.
	off := newMemoLRU(-1)
	off.add("a", 1)
	if _, ok := off.get("a"); ok {
		t.Error("disabled cache stored a value")
	}
}

func TestDefaultTimeout(t *testing.T) {
	t.Parallel()
	// Server-imposed default deadline applies when the request sets none.
	_, hs := newTestServer(t, Config{DefaultTimeout: time.Millisecond})
	code, b := post(t, hs.URL+"/v1/sweep", `{"ref_limit":2000000}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, b)
	}
}

func BenchmarkEvaluateMemoized(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"mix":"FGO1","ref_limit":20000}`
	if code, rb := benchPost(b, hs.URL+"/v1/evaluate", body); code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", code, rb)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _ := benchPost(b, hs.URL+"/v1/evaluate", body)
		if code != http.StatusOK {
			b.Fatal("bad status")
		}
	}
}

func benchPost(tb testing.TB, url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestEvaluateMatchesReferenceModel cross-checks the evaluate endpoint
// against the conformance harness's naive reference simulator: the report
// the server returns must be derivable, figure by figure, from a
// simcheck.RefSystem run over the same stream. This pins the whole service
// path — catalog lookup, the generator under evaluate (total-limit)
// semantics, simulation, and report assembly — to the independently
// written model.
func TestEvaluateMatchesReferenceModel(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{})
	const mixName = "FGO1"
	const refLimit = 6000
	quantum := s.catalog[mixName].Quantum
	designs := []cache.SystemConfig{
		{Unified: cache.Config{Size: 1024, LineSize: 16}, PurgeInterval: quantum},
		{Unified: cache.Config{Size: 2048, LineSize: 32, Fetch: cache.PrefetchAlways}, PurgeInterval: quantum},
		{Split: true,
			I:             cache.Config{Size: 512, LineSize: 16},
			D:             cache.Config{Size: 512, LineSize: 16},
			PurgeInterval: quantum},
	}
	for _, design := range designs {
		body, err := json.Marshal(EvaluateRequest{Design: design, Mix: mixName, RefLimit: refLimit})
		if err != nil {
			t.Fatal(err)
		}
		code, b := post(t, hs.URL+"/v1/evaluate", string(body))
		if code != http.StatusOK {
			t.Fatalf("design %+v: status %d: %s", design, code, b)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}

		rd, err := s.catalog[mixName].Open()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := simcheck.NewRefSystem(design)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(trace.NewLimitReader(rd, refLimit), 0); err != nil {
			t.Fatal(err)
		}
		rs := ref.RefStats()
		all := ref.Stats()
		dataCache := ref.Unified()
		if design.Split {
			dataCache = ref.DCache()
		}
		want := core.Report{
			Design:            design,
			Workload:          mixName,
			Refs:              rs.TotalRefs(),
			MissRatio:         rs.MissRatio(),
			InstrMiss:         rs.KindMissRatio(trace.IFetch),
			DataMiss:          rs.DataMissRatio(),
			ReadMiss:          rs.KindMissRatio(trace.Read),
			WriteMiss:         rs.KindMissRatio(trace.Write),
			BytesFromMemory:   all.BytesFromMemory,
			BytesToMemory:     all.BytesToMemory,
			TrafficRatio:      float64(all.MemoryTraffic()) / float64(ref.RefBytes()),
			DirtyPushFraction: dataCache.Stats().FracPushesDirty(),
			PrefetchAccuracy:  all.PrefetchAccuracy(),
		}
		if resp.Report != want {
			t.Errorf("design %+v: report diverges from reference model\n   got %+v\n  want %+v",
				design, resp.Report, want)
		}
	}
}

// TestEvaluatesRegenerateStream sends two evaluates of one mix with
// distinct designs: no stream is shared between them, so each runs its own
// simulation to completion (cached:false) and reports exactly what
// core.EvaluateContext does on the mix's generator.
func TestEvaluatesRegenerateStream(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{})
	mix := s.catalog["FGO1"]
	for _, size := range []int{4096, 16384} {
		design := cache.SystemConfig{Unified: cache.Config{Size: size, LineSize: 16}, PurgeInterval: mix.Quantum}
		body, err := json.Marshal(EvaluateRequest{Design: design, Mix: mix.Name, RefLimit: 20000})
		if err != nil {
			t.Fatal(err)
		}
		code, b := post(t, hs.URL+"/v1/evaluate", string(body))
		if code != http.StatusOK {
			t.Fatalf("size %d: status %d: %s", size, code, b)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached || resp.Shared {
			t.Errorf("size %d: cached=%v shared=%v, want a run of its own", size, resp.Cached, resp.Shared)
		}
		want, err := core.EvaluateContext(context.Background(), design, mix, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Report != want {
			t.Errorf("size %d: report differs from core.EvaluateContext\n got %+v\nwant %+v", size, resp.Report, want)
		}
	}
	if n := s.snapshot().SimRuns; n != 2 {
		t.Errorf("sim_runs = %d, want 2", n)
	}
}

// TestCatalogQuantum spot-checks that single-trace catalog entries carry
// their architecture's purge quantum (what MixByName would give).
func TestCatalogQuantum(t *testing.T) {
	t.Parallel()
	s := New(Config{})
	defer s.Close()
	m, ok := s.catalog["FGO1"]
	if !ok {
		t.Fatal("FGO1 missing")
	}
	if m.Quantum <= 0 {
		t.Errorf("FGO1 quantum = %d, want > 0", m.Quantum)
	}
	if fmt.Sprint(m.Specs[0].Name) != "FGO1" {
		t.Errorf("spec name %q", m.Specs[0].Name)
	}
}

// TestPoliciesEndpoint checks the discovery endpoint enumerates every
// registered replacement and fetch policy with the canonical spellings the
// evaluate/sweep validators accept.
func TestPoliciesEndpoint(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	code, b := get(t, hs.URL+"/v1/policies")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp struct {
		Policies      []PolicyInfo `json:"policies"`
		FetchPolicies []PolicyInfo `json:"fetch_policies"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Policies) != len(cache.Replacements()) {
		t.Fatalf("got %d policies, want %d", len(resp.Policies), len(cache.Replacements()))
	}
	if len(resp.FetchPolicies) != len(cache.FetchPolicies()) {
		t.Fatalf("got %d fetch policies, want %d", len(resp.FetchPolicies), len(cache.FetchPolicies()))
	}
	inclusion := map[string]bool{}
	for _, p := range resp.Policies {
		if _, err := cache.ParseReplacement(p.Name); err != nil {
			t.Errorf("advertised policy %q does not parse: %v", p.Name, err)
		}
		for _, a := range p.Aliases {
			if _, err := cache.ParseReplacement(a); err != nil {
				t.Errorf("advertised alias %q does not parse: %v", a, err)
			}
		}
		inclusion[p.Name] = p.StackInclusion
	}
	if !inclusion["lru"] {
		t.Error("lru must advertise stack inclusion")
	}
	for _, name := range []string{"fifo", "random", "lfu", "slru", "arc"} {
		if inclusion[name] {
			t.Errorf("%s must not advertise stack inclusion", name)
		}
	}
	for _, p := range resp.FetchPolicies {
		if _, err := cache.ParseFetchPolicy(p.Name); err != nil {
			t.Errorf("advertised fetch policy %q does not parse: %v", p.Name, err)
		}
	}
}

// TestEvaluatePolicyField runs one workload under each named policy and
// checks the override lands in the reported design, distinct policies miss
// differently from LRU where expected, and the folded form memoizes
// identically to a design that sets Repl directly.
func TestEvaluatePolicyField(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	reports := map[string]core.Report{}
	for _, policy := range []string{"lru", "fifo", "lfu", "slru", "arc"} {
		body := fmt.Sprintf(
			`{"mix":"FGO1","ref_limit":12000,"policy":%q,"design":{"Unified":{"Size":512,"LineSize":16,"Assoc":4}}}`,
			policy)
		code, b := post(t, hs.URL+"/v1/evaluate", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", policy, code, b)
		}
		var resp EvaluateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		want, err := cache.ParseReplacement(policy)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Report.Design.Unified.Repl; got != want {
			t.Errorf("%s: design reports policy %v", policy, got)
		}
		reports[policy] = resp.Report
	}
	if reports["lru"].MissRatio == reports["fifo"].MissRatio &&
		reports["lru"].MissRatio == reports["arc"].MissRatio {
		t.Error("all policies produced identical miss ratios; overrides likely ignored")
	}

	// The same design with Repl set numerically must hit the memo entry the
	// named override created.
	code, b := post(t, hs.URL+"/v1/evaluate",
		`{"mix":"FGO1","ref_limit":12000,"design":{"Unified":{"Size":512,"LineSize":16,"Assoc":4,"Repl":3}}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var folded EvaluateResponse
	if err := json.Unmarshal(b, &folded); err != nil {
		t.Fatal(err)
	}
	if !folded.Cached {
		t.Error("numeric Repl did not hit the folded policy's memo entry")
	}
	if folded.Report != reports["lfu"] {
		t.Errorf("folded report differs:\n%+v\n%+v", folded.Report, reports["lfu"])
	}
}

// TestSweepPolicyField runs a small sweep under a non-LRU policy (which the
// engine registry must route per size) and checks it differs from the LRU
// sweep while aliases of one policy share a memo entry.
func TestSweepPolicyField(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	run := func(body string) SweepResponse {
		t.Helper()
		code, b := post(t, hs.URL+"/v1/sweep", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
		var resp SweepResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	lru := run(`{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":8000}`)
	arc := run(`{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":8000,"policy":"arc"}`)
	if arc.Cached {
		t.Error("arc sweep unexpectedly hit the LRU sweep's memo entry")
	}
	if lru.Cells[0][0] == arc.Cells[0][0] {
		t.Error("ARC sweep cell identical to LRU; policy likely not applied")
	}
	slru := run(`{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":8000,"policy":"segmented-lru"}`)
	if slru.Cached {
		t.Error("first slru sweep reported cached")
	}
	twoQ := run(`{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":8000,"policy":"2q"}`)
	if !twoQ.Cached {
		t.Error("2q did not share segmented-lru's memo entry")
	}
}
