package server

// Fuzz targets for the request decoding and validation layer. Whatever body
// arrives, decode + validate must never panic, must never start simulation
// work, and must classify every rejection as 400 (bad request) or 413 (body
// too large). The validators are deliberately free of allocation-heavy work
// (cache construction is size-capped first), so these targets are safe to
// run at fuzzing throughput.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzServer builds one shared server for a fuzz target. Validation only
// reads the catalog, so sharing across executions is safe.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{MaxBodyBytes: 1 << 16})
	f.Cleanup(s.Close)
	return s
}

func FuzzEvaluateRequestDecode(f *testing.F) {
	s := fuzzServer(f)
	f.Add(`{"mix":"FGO1","ref_limit":1000}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":1024,"LineSize":16}},"timeout_ms":50}`)
	f.Add(`{"mix":"FGO1","design":{"Split":true,"I":{"Size":512,"LineSize":16},"D":{"Size":512,"LineSize":16}}}`)
	f.Add(`{"mix":"NOPE"}`)
	f.Add(`{not json`)
	f.Add(`{"mixx":"FGO1"}`)
	f.Add(`{"mix":"FGO1","ref_limit":-5}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":12345,"LineSize":16}}}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":4611686018427387904,"LineSize":16}}}`)
	f.Add(`{"mix":"FGO1","policy":"arc"}`)
	f.Add(`{"mix":"FGO1","policy":"2q","fetch":"tagged"}`)
	f.Add(`{"mix":"FGO1","policy":"clock"}`)
	f.Add(`{"mix":"FGO1","fetch":"never"}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":1024,"LineSize":16,"Repl":9}}}`)
	f.Add(`{"mix":"FGO1","mode":"sampled","error_budget":0.02}`)
	f.Add(`{"mix":"FGO1","mode":"bogus"}`)
	f.Add(`{"mix":"FGO1","error_budget":0.02}`)
	f.Add(`{"mix":"FGO1","mode":"sampled"}`)
	f.Add(`{"mix":"FGO1","mode":"sampled","error_budget":-0.5}`)
	f.Add(`{"mix":"FGO1","mode":"sampled","error_budget":1e308}`)
	f.Add(`{"mix":"FGO1","mode":"exact","error_budget":0.02}`)
	f.Add(`{"mix":"FGO1","victim":4}`)
	f.Add(`{"mix":"FGO1","victim":-1}`)
	f.Add(`{"mix":"FGO1","victim":1048576}`)
	f.Add(`{"mix":"FGO1","victim":0,"l2":{"size":65536}}`)
	f.Add(`{"mix":"FGO1","victim":2,"policy":"random"}`)
	f.Add(`{"mix":"FGO1","l2":{"size":65536,"line_size":32,"assoc":4}}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":4096,"LineSize":16}},"l2":{"size":512}}`)
	f.Add(`{"mix":"FGO1","l2":{}}`)
	f.Add(`{"mix":"FGO1","l2":{"size":65537}}`)
	f.Add(`{"mix":"FGO1","l2":{"size":65536},"mode":"sampled","error_budget":0.02}`)
	f.Add(`{"mix":"FGO1","l2":{"size":65536},"parallel":4}`)
	f.Add(`{"mix":"FGO1","victim":4,"parallel":8}`)
	f.Add(`{"mix":"FGO1","design":{"Unified":{"Size":1024,"LineSize":16,"SubBlock":4}},"victim":2}`)
	f.Add(strings.Repeat("[", 1000))
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body))
		w := httptest.NewRecorder()
		var er EvaluateRequest
		if !s.decode(w, req, &er) {
			if c := w.Code; c != http.StatusBadRequest && c != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode rejection classified as %d", c)
			}
			return
		}
		if _, _, verr := s.validateEvaluate(&er); verr != nil && verr.code != http.StatusBadRequest {
			t.Fatalf("validation rejection classified as %d: %s", verr.code, verr.msg)
		}
	})
}

func FuzzSweepRequestDecode(f *testing.F) {
	s := fuzzServer(f)
	f.Add(`{"mixes":["FGO1","CGO1"],"sizes":[256,1024],"ref_limit":1000}`)
	f.Add(`{}`)
	f.Add(`{"mixes":["NOPE"]}`)
	f.Add(`{"sizes":[-4]}`)
	f.Add(`{"sizes":[0]}`)
	f.Add(`{"sizes":[1152921504606846976]}`)
	f.Add(`{"line_size":-1}`)
	f.Add(`{"ref_limit":-1}`)
	f.Add(`{"mixes":[],"sizes":[],"line_size":0}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"mixes":["FGO1"],"policy":"lfu"}`)
	f.Add(`{"mixes":["FGO1"],"policy":"segmented-lru","sizes":[512]}`)
	f.Add(`{"policy":"belady"}`)
	f.Add(`{"mixes":["FGO1"],"mode":"sampled","error_budget":0.02}`)
	f.Add(`{"mixes":["FGO1"],"mode":"approx"}`)
	f.Add(`{"mixes":["FGO1"],"error_budget":0.02}`)
	f.Add(`{"mixes":["FGO1"],"mode":"sampled","error_budget":-1}`)
	f.Add(`{"mixes":["FGO1"],"mode":"sampled","error_budget":2}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"victim":2}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"victim":-3}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"victim":0,"l2":{"size":16384}}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[4096],"l2":{"size":512}}`)
	f.Add(`{"mixes":["FGO1"],"l2":{"size":1024}}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"l2":{"size":16384,"assoc":3}}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"victim":2,"policy":"random"}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"l2":{"size":16384},"mode":"sampled","error_budget":0.02}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[256],"victim":2,"parallel":4}`)
	f.Add(`{"mixes":["FGO1"],"sizes":[48]}`)
	f.Add(`{"mixes":["FGO1"],"line_size":3}`)
	f.Add(`{"mixes":["FGO1","CGO1","FGO1"]}`)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		var sr SweepRequest
		if !s.decode(w, req, &sr) {
			if c := w.Code; c != http.StatusBadRequest && c != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode rejection classified as %d", c)
			}
			return
		}
		mixes, _, verr := s.validateSweep(&sr)
		if verr != nil {
			if verr.code != http.StatusBadRequest {
				t.Fatalf("validation rejection classified as %d: %s", verr.code, verr.msg)
			}
			return
		}
		// The contract downstream keying relies on: a valid request always
		// resolves at least one mix, and req.Mixes names each of them.
		if len(mixes) == 0 {
			t.Fatal("valid sweep resolved zero mixes")
		}
		if len(mixes) != len(sr.Mixes) {
			t.Fatalf("resolved %d mixes but request names %d", len(mixes), len(sr.Mixes))
		}
	})
}
