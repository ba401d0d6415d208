package server

// Race-stress coverage: many goroutines hammer the evaluate and sweep
// endpoints over a handful of distinct keys against a server whose memo is
// deliberately tiny, so memoization, singleflight joining and eviction
// churn all contend at once. Run under `go test -race` this is the
// service's data-race gate; the correctness bar is that every request
// succeeds and every response for a given request body carries an
// identical payload.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// stablePayload extracts the memoizable part of a response — the part that
// must be identical across repeats of one request — dropping the per-request
// Cached/Shared/ElapsedMS envelope.
func stablePayload(path string, body []byte) (string, error) {
	switch path {
	case "/v1/evaluate":
		var er EvaluateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", er.Report), nil
	case "/v1/sweep":
		var sr SweepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", sr.sweepPayload), nil
	}
	return "", fmt.Errorf("unknown path %q", path)
}

func TestConcurrentStress(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{MemoEntries: 4, MaxConcurrent: 4})
	goroutines, iters := 12, 15
	if testing.Short() {
		goroutines, iters = 8, 6
	}
	// Six distinct keys over a 4-entry memo: every mechanism (hit, miss,
	// join, evict) is exercised continuously.
	reqs := []struct {
		path, body string
	}{
		{"/v1/evaluate", `{"mix":"FGO1","ref_limit":2000}`},
		{"/v1/evaluate", `{"mix":"CGO1","ref_limit":2000}`},
		{"/v1/evaluate", `{"mix":"FGO1","ref_limit":3000}`},
		{"/v1/evaluate", `{"mix":"FGO2","ref_limit":2000}`},
		{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[256,1024],"ref_limit":1500}`},
		{"/v1/sweep", `{"mixes":["CGO1"],"sizes":[512],"ref_limit":1500}`},
	}
	var canon sync.Map // request body -> first observed payload
	errs := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rq := reqs[(g+i)%len(reqs)]
				resp, err := http.Post(hs.URL+rq.path, "application/json", strings.NewReader(rq.body))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s %s: status %d: %s", rq.path, rq.body, resp.StatusCode, b)
					return
				}
				payload, err := stablePayload(rq.path, b)
				if err != nil {
					errs <- fmt.Errorf("%s %s: %v", rq.path, rq.body, err)
					return
				}
				if prev, loaded := canon.LoadOrStore(rq.body, payload); loaded && prev != payload {
					errs <- fmt.Errorf("%s: divergent payloads for one key:\n%v\n%v", rq.body, prev, payload)
					return
				}
			}
		}(g)
	}
	// Metrics snapshots read the same counters the handlers write; hammer
	// them concurrently so -race covers that pairing too.
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.snapshot()
	if total := int64(goroutines * iters); snap.Requests != total {
		t.Errorf("requests = %d, want %d", snap.Requests, total)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after drain, want 0", snap.InFlight)
	}
	if snap.Errors != 0 {
		t.Errorf("errors = %d, want 0", snap.Errors)
	}
}
