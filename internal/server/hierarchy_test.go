package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestHierarchyValidation pins the structured 400s for malformed victim and
// l2 request blocks on both endpoints: out-of-range buffers, inverted
// hierarchies, and fields neither endpoint has — the removed sampled
// mode's "mode" and "error_budget", alone and with a hierarchy, and
// /v1/evaluate's "parallel".
func TestHierarchyValidation(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"negative victim", "/v1/evaluate", `{"mix":"FGO1","victim":-1}`},
		{"huge victim", "/v1/evaluate", `{"mix":"FGO1","victim":1048576}`},
		{"inverted hierarchy", "/v1/evaluate",
			`{"mix":"FGO1","design":{"Unified":{"Size":4096,"LineSize":16}},"l2":{"size":512}}`},
		{"empty l2", "/v1/evaluate", `{"mix":"FGO1","l2":{}}`},
		{"non-power l2", "/v1/evaluate", `{"mix":"FGO1","l2":{"size":65537}}`},
		{"oversized l2", "/v1/evaluate", `{"mix":"FGO1","l2":{"size":33554432}}`},
		{"l2 with sampled", "/v1/evaluate",
			`{"mix":"FGO1","l2":{"size":65536},"mode":"sampled","error_budget":0.02}`},
		{"l2 with parallel", "/v1/evaluate", `{"mix":"FGO1","l2":{"size":65536},"parallel":4}`},
		{"victim with sampled", "/v1/evaluate",
			`{"mix":"FGO1","victim":4,"mode":"sampled","error_budget":0.02}`},
		{"victim with parallel", "/v1/evaluate", `{"mix":"FGO1","victim":4,"parallel":4}`},
		{"sweep negative victim", "/v1/sweep", `{"mixes":["FGO1"],"sizes":[512],"victim":-1}`},
		{"sweep inverted hierarchy", "/v1/sweep",
			`{"mixes":["FGO1"],"sizes":[4096],"l2":{"size":512}}`},
		{"sweep l2 below split total", "/v1/sweep",
			`{"mixes":["FGO1"],"sizes":[1024],"l2":{"size":1024}}`},
		{"sweep oversized l2", "/v1/sweep", `{"mixes":["FGO1"],"sizes":[512],"l2":{"size":33554432}}`},
		{"sweep l2 with sampled", "/v1/sweep",
			`{"mixes":["FGO1"],"sizes":[512],"l2":{"size":65536},"mode":"sampled","error_budget":0.02}`},
		{"sampled mode", "/v1/evaluate", `{"mix":"FGO1","mode":"sampled"}`},
		{"exact mode", "/v1/evaluate", `{"mix":"FGO1","mode":"exact"}`},
		{"error budget", "/v1/evaluate", `{"mix":"FGO1","error_budget":0.02}`},
		{"sweep sampled mode", "/v1/sweep", `{"mixes":["FGO1"],"mode":"sampled"}`},
		{"sweep exact mode", "/v1/sweep", `{"mixes":["FGO1"],"mode":"exact"}`},
		{"sweep error budget", "/v1/sweep", `{"mixes":["FGO1"],"error_budget":0.02}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := post(t, hs.URL+tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", code, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Errorf("rejection is not a structured error: %s", b)
			}
		})
	}
}

// TestEvaluateHierarchyEndToEnd drives /v1/evaluate with a victim buffer and
// an L2 and checks the report shape — and, critically, memo separation: a
// hierarchy request and a single-level request for the identical L1 design
// must never share a memo entry, in either direction.
func TestEvaluateHierarchyEndToEnd(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	hier := `{"mix":"FGO1","ref_limit":20000,"design":{"Unified":{"Size":1024,"LineSize":16}},"victim":4,"l2":{"size":16384,"line_size":32}}`
	single := `{"mix":"FGO1","ref_limit":20000,"design":{"Unified":{"Size":1024,"LineSize":16}},"victim":4}`

	code, b := post(t, hs.URL+"/v1/evaluate", hier)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Hierarchy == nil {
		t.Fatal("hierarchy evaluation returned no Hierarchy block")
	}
	h := resp.Report.Hierarchy
	if h.L2Design.Size != 16384 || h.L2Design.LineSize != 32 {
		t.Errorf("L2 design %+v, want 16384/32", h.L2Design)
	}
	if h.L2Fetches == 0 {
		t.Error("L2 saw no fetch events")
	}
	if h.GlobalMissRatio > resp.Report.MissRatio {
		t.Errorf("global miss ratio %v exceeds L1 miss ratio %v",
			h.GlobalMissRatio, resp.Report.MissRatio)
	}
	if h.L2LocalMissRatio < 0 || h.L2LocalMissRatio > 1 {
		t.Errorf("local miss ratio %v out of range", h.L2LocalMissRatio)
	}
	if resp.Report.VictimHits == 0 {
		t.Error("victim buffer recorded no hits")
	}
	if resp.Cached {
		t.Error("first hierarchy request reported a memo hit")
	}

	// The single-level request with the identical L1 must miss the memo...
	code, b = post(t, hs.URL+"/v1/evaluate", single)
	if code != http.StatusOK {
		t.Fatalf("single-level status %d: %s", code, b)
	}
	var sl EvaluateResponse
	if err := json.Unmarshal(b, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Cached {
		t.Error("single-level request served from the hierarchy memo entry")
	}
	if sl.Report.Hierarchy != nil {
		t.Error("single-level response carries a Hierarchy block")
	}

	// ...and the repeated hierarchy request must hit its own entry with the
	// identical report.
	code, b = post(t, hs.URL+"/v1/evaluate", hier)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, b)
	}
	var again EvaluateResponse
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat hierarchy request missed the memo")
	}
	if again.Report.Hierarchy == nil || *again.Report.Hierarchy != *resp.Report.Hierarchy {
		t.Errorf("memoized hierarchy block differs: %+v vs %+v",
			again.Report.Hierarchy, resp.Report.Hierarchy)
	}
}

// TestSweepHierarchyEndToEnd drives /v1/sweep with an L2 and a victim
// buffer: every variant carries the l2 block and victim hits, the sweep
// memoizes separately from the identical single-level grid, and a
// "parallel" worker count shares its memo entry.
func TestSweepHierarchyEndToEnd(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	hier := `{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":20000,"victim":2,"l2":{"size":16384,"line_size":32}}`
	code, b := post(t, hs.URL+"/v1/sweep", hier)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 || len(resp.Cells[0]) != 2 {
		t.Fatalf("cells shape %dx?, want 1x2", len(resp.Cells))
	}
	for si, cell := range resp.Cells[0] {
		variants := []struct {
			name   string
			v      VariantOut
			demand bool
		}{
			{"split_demand", cell.SplitDemand, true},
			{"split_prefetch", cell.SplitPrefetch, false},
			{"unified_demand", cell.UnifiedDemand, true},
			{"unified_prefetch", cell.UnifiedPrefetch, false},
		}
		for _, c := range variants {
			if c.v.L2 == nil {
				t.Fatalf("size index %d %s: no l2 block", si, c.name)
			}
			if c.v.L2.Fetches == 0 {
				t.Errorf("size index %d %s: L2 saw no fetches", si, c.name)
			}
			// Under demand fetch every L2 fetch event is an L1 miss, so the
			// global ratio is bounded by the L1's (prefetch variants can
			// exceed it — prefetch-driven L2 misses are not L1 misses).
			if c.demand && c.v.L2.GlobalMissRatio > c.v.MissRatio {
				t.Errorf("size index %d %s: global %v exceeds L1 %v",
					si, c.name, c.v.L2.GlobalMissRatio, c.v.MissRatio)
			}
		}
	}
	// The L2 behind a larger L1 sees fewer fetch events.
	small := resp.Cells[0][0].UnifiedDemand.L2.Fetches
	large := resp.Cells[0][1].UnifiedDemand.L2.Fetches
	if large >= small {
		t.Errorf("L2 fetches did not shrink with L1 size: %d (256B) vs %d (1KB)", small, large)
	}
	if resp.Cells[0][0].UnifiedDemand.VictimHits == 0 {
		t.Error("victim buffer recorded no hits at the smallest size")
	}

	// Memo separation from the identical single-level grid, both directions.
	single := `{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":20000}`
	code, b = post(t, hs.URL+"/v1/sweep", single)
	if code != http.StatusOK {
		t.Fatalf("single-level status %d: %s", code, b)
	}
	var sl SweepResponse
	if err := json.Unmarshal(b, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Cached {
		t.Error("single-level sweep served from the hierarchy memo entry")
	}
	if sl.Cells[0][0].UnifiedDemand.L2 != nil {
		t.Error("single-level sweep carries an l2 block")
	}
	if sl.Cells[0][0].UnifiedDemand.VictimHits != 0 {
		t.Error("single-level sweep carries victim hits")
	}
	code, b = post(t, hs.URL+"/v1/sweep", hier)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, b)
	}
	var again SweepResponse
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat hierarchy sweep missed the memo")
	}
	code, b = post(t, hs.URL+"/v1/sweep", strings.Replace(hier, `"victim":2`, `"victim":2,"parallel":4`, 1))
	if code != http.StatusOK {
		t.Fatalf("parallel repeat status %d: %s", code, b)
	}
	var par SweepResponse
	if err := json.Unmarshal(b, &par); err != nil {
		t.Fatal(err)
	}
	if !par.Cached || !reflect.DeepEqual(par.Cells, resp.Cells) {
		t.Errorf(`"parallel":4 hierarchy sweep: cached=%v, cells equal=%v; want a memo hit with the same cells`,
			par.Cached, reflect.DeepEqual(par.Cells, resp.Cells))
	}
}

// TestHierarchyMemoKeyCanonical pins the key canonicalization: an l2 block
// spelling out the inherited line size memoizes as the same entry as one
// omitting it.
func TestHierarchyMemoKeyCanonical(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	implicit := `{"mix":"FGO1","ref_limit":5000,"design":{"Unified":{"Size":512,"LineSize":16}},"l2":{"size":8192}}`
	explicit := `{"mix":"FGO1","ref_limit":5000,"design":{"Unified":{"Size":512,"LineSize":16}},"l2":{"size":8192,"line_size":16}}`
	if code, b := post(t, hs.URL+"/v1/evaluate", implicit); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	code, b := post(t, hs.URL+"/v1/evaluate", explicit)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("explicit inherited line size missed the implicit entry's memo")
	}
}

// TestHierarchyMetricsExposed checks that two-level and victim runs feed the
// cacheeval_hierarchy_* Prometheus families.
func TestHierarchyMetricsExposed(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	code, b := post(t, hs.URL+"/v1/evaluate",
		`{"mix":"FGO1","ref_limit":20000,"design":{"Unified":{"Size":1024,"LineSize":16}},"victim":4,"l2":{"size":16384}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	code, body := get(t, hs.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, family := range []string{
		"cacheeval_hierarchy_l2_fetches_total",
		"cacheeval_hierarchy_l2_fetch_misses_total",
		"cacheeval_hierarchy_l2_writes_total",
		"cacheeval_hierarchy_l2_write_misses_total",
		"cacheeval_hierarchy_victim_hits_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics output missing %q", family)
			continue
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, family+" ") && strings.TrimPrefix(line, family+" ") == "0" &&
				(family == "cacheeval_hierarchy_l2_fetches_total" || family == "cacheeval_hierarchy_victim_hits_total") {
				t.Errorf("%s still zero after a hierarchy run", family)
			}
		}
	}
}
