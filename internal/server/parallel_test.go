package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParallelValidation pins the structured 400s for every malformed
// parallel request: /v1/evaluate has no such field, and /v1/sweep bounds
// its worker count.
func TestParallelValidation(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"negative", "/v1/evaluate", `{"mix":"FGO1","parallel":-1}`},
		{"over limit", "/v1/evaluate", `{"mix":"FGO1","parallel":100}`},
		{"with sampled mode", "/v1/evaluate", `{"mix":"FGO1","mode":"sampled","error_budget":0.1,"parallel":4}`},
		{"sweep negative", "/v1/sweep", `{"mixes":["FGO1"],"parallel":-2}`},
		{"sweep over limit", "/v1/sweep", `{"mixes":["FGO1"],"parallel":65}`},
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

// TestSweepParallelEndToEnd checks that "parallel" is only a worker count:
// a "parallel":2 sweep after its serial twin is a memo hit with identical
// cells, and a sweep that runs with "parallel":4 from the start matches
// the serial cells too.
func TestSweepParallelEndToEnd(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	sweep := func(body string) SweepResponse {
		t.Helper()
		code, b := post(t, hs.URL+"/v1/sweep", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
		if strings.Contains(string(b), `"parallel"`) {
			t.Errorf("response carries a parallel block: %s", b)
		}
		var resp SweepResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	serial := sweep(`{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":150000}`)
	if serial.Cached {
		t.Fatal("first sweep reported a memo hit")
	}
	par := sweep(`{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":150000,"parallel":2}`)
	if !par.Cached {
		t.Error(`"parallel":2 sweep missed its serial twin's memo entry`)
	}
	if !reflect.DeepEqual(par.Cells, serial.Cells) {
		t.Error(`"parallel":2 sweep cells differ from the serial sweep's`)
	}
	fresh := sweep(`{"mixes":["FGO1","CGO1"],"sizes":[1024,4096],"ref_limit":150000,"parallel":4}`)
	if fresh.Cached {
		t.Fatal("fresh parallel sweep reported a memo hit")
	}
	if !reflect.DeepEqual(fresh.Cells[0], serial.Cells[0]) {
		t.Error(`"parallel":4 sweep cells differ from the serial sweep's`)
	}
}

// TestSweepDisconnectSettles drops the client of a "parallel":4 sweep once
// its simulation holds a worker slot. The abandoned flight is cancelled,
// so its grid workers must exit: the goroutine count returns to its
// pre-request level and in_flight to 0.
func TestSweepDisconnectSettles(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"parallel":4}` // all 17 standard mixes at full length: seconds of work
	req, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	deadline = time.Now().Add(5 * time.Second)
	for {
		// Drop keep-alive connection goroutines so only simulation leaks
		// would remain.
		http.DefaultClient.CloseIdleConnections()
		n, inFlight := runtime.NumGoroutine(), s.snapshot().InFlight
		if n <= before && inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after disconnect: goroutines before=%d now=%d, in_flight=%d\n%s",
				before, n, inFlight, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
