package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// serviceGoldenRequests are the requests TestServiceGolden pins: the
// evaluate paths (LRU, ARC and Random designs; victim+L2) and one sweep per
// engine family (the LRU grid runs the stack-inclusion and fan-out
// engines, ARC the per-size engine, victim+L2 the per-size hierarchy
// path). The last request repeats the ARC
// sweep with "parallel":2, a worker count that must leave its cells, and
// its memo entry, those of the serial ARC sweep.
var serviceGoldenRequests = []struct{ path, body string }{
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":60000}`},
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":60000,"design":{"Split":true,"I":{"Size":4096,"LineSize":16},"D":{"Size":4096,"LineSize":16},"PurgeInterval":20000},"policy":"fifo","fetch":"always"}`},
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":150000}`},
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":150000,"policy":"arc","design":{"Split":true,"I":{"Size":4096,"LineSize":16},"D":{"Size":4096,"LineSize":16}}}`},
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":150000,"policy":"random"}`},
	{"/v1/evaluate", `{"mix":"FGO1","ref_limit":20000,"design":{"Unified":{"Size":1024,"LineSize":16}},"victim":4,"l2":{"size":16384,"line_size":32}}`},
	{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[256,1024,4096],"ref_limit":20000}`},
	{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[256,1024,4096],"ref_limit":20000,"policy":"arc"}`},
	{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":20000,"victim":2,"l2":{"size":16384,"line_size":32}}`},
	{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[256,1024,4096],"ref_limit":20000,"policy":"arc","parallel":2}`},
}

// TestServiceGolden pins the service's answers byte for byte: each request
// in serviceGoldenRequests goes to a fresh server, and its status plus the
// canonical JSON of its reply (object keys sorted, elapsed_ms dropped, the
// only wall-clock field) must match testdata/service.golden.ndjson, one
// line per request. An engine refactor that moves any digit of any of
// these answers fails here.
func TestServiceGolden(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	var got bytes.Buffer
	for _, rq := range serviceGoldenRequests {
		code, body := post(t, hs.URL+rq.path, rq.body)
		var resp map[string]any
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s %s: %v: %s", rq.path, rq.body, err, body)
		}
		delete(resp, "elapsed_ms")
		line, err := json.Marshal(map[string]any{
			"path": rq.path, "request": json.RawMessage(rq.body),
			"status": code, "response": resp,
		})
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	want, err := os.ReadFile(filepath.Join("testdata", "service.golden.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("got %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d drifted\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
