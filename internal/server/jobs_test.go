package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheeval/internal/jobs"
)

// createJob posts a job request and returns the accepted job's ID.
func createJob(t *testing.T, baseURL, body string) string {
	t.Helper()
	code, b := post(t, baseURL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("job create status %d: %s", code, b)
	}
	var acc JobAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatalf("decoding accept: %v", err)
	}
	if acc.ID == "" || acc.EventsURL == "" {
		t.Fatalf("incomplete accept: %+v", acc)
	}
	return acc.ID
}

// streamEvents consumes a job's NDJSON stream to its terminal event and
// returns every event received, in order.
func streamEvents(t *testing.T, baseURL, id, query string) []jobs.Event {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events content type %q, want application/x-ndjson", got)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return evs
}

// eventTypes summarizes a stream for assertions.
func eventTypes(evs []jobs.Event) map[string]int {
	m := make(map[string]int)
	for _, ev := range evs {
		m[ev.Type]++
	}
	return m
}

// TestJobSweepMatchesSync is the tentpole acceptance test: an async sweep
// job's terminal summary event must be byte-identical (after canonical
// struct-ordered re-marshaling) to the synchronous /v1/sweep response for
// the same request — and the job must have populated the memo the
// synchronous endpoint then hits.
func TestJobSweepMatchesSync(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	sweep := `{"mixes":["FGO1","CGO1"],"sizes":[1024,4096],"ref_limit":20000}`

	id := createJob(t, hs.URL, `{"sweep":`+sweep+`}`)
	evs := streamEvents(t, hs.URL, id, "")
	types := eventTypes(evs)
	if types["accepted"] != 1 || types["started"] != 1 || types["summary"] != 1 || types["done"] != 1 {
		t.Fatalf("lifecycle events wrong: %v", types)
	}
	// 2 mixes x 4 passes x 2 sizes cells, streamed as they complete.
	if types["cell"] != 16 {
		t.Fatalf("got %d cell events, want 16 (types %v)", types["cell"], types)
	}
	// Engine events flow through the job sink: one run_start/run_end pair
	// per grid pass (8) plus the sampled/parallel stages' absence here.
	if types["run_start"] == 0 || types["run_end"] == 0 {
		t.Fatalf("no engine lifecycle events in stream: %v", types)
	}
	// Sequence numbers are contiguous from 1 and the terminal event is last.
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[len(evs)-1].Type != "done" {
		t.Fatalf("last event %q, want done", evs[len(evs)-1].Type)
	}

	var summary json.RawMessage
	for _, ev := range evs {
		if ev.Type == "summary" {
			summary = ev.Data
		}
	}

	// Each cell event must decode and match its summary counterpart later;
	// spot-check the shape here.
	for _, ev := range evs {
		if ev.Type != "cell" {
			continue
		}
		var cell JobCellOut
		if err := json.Unmarshal(ev.Data, &cell); err != nil {
			t.Fatalf("bad cell payload: %v", err)
		}
		if cell.Mix == "" || cell.Size == 0 {
			t.Fatalf("incomplete cell: %+v", cell)
		}
	}

	code, syncBody := post(t, hs.URL+"/v1/sweep", sweep)
	if code != http.StatusOK {
		t.Fatalf("sync sweep status %d: %s", code, syncBody)
	}
	var syncResp SweepResponse
	if err := json.Unmarshal(syncBody, &syncResp); err != nil {
		t.Fatal(err)
	}
	if !syncResp.Cached {
		t.Error("sync sweep after identical job was not a memo hit")
	}

	// Canonicalize both payloads through the same struct (encoding/json
	// writes struct fields in declaration order) and require byte equality.
	var fromJob, fromSync sweepPayload
	if err := json.Unmarshal(summary, &fromJob); err != nil {
		t.Fatalf("decoding summary event: %v", err)
	}
	if err := json.Unmarshal(syncBody, &fromSync); err != nil {
		t.Fatalf("decoding sync response: %v", err)
	}
	jb, _ := json.Marshal(fromJob)
	sb, _ := json.Marshal(fromSync)
	if !bytes.Equal(jb, sb) {
		t.Fatalf("summary event and sync response differ:\njob:  %s\nsync: %s", jb, sb)
	}

	// The status endpoint offers the same summary and all cells after the
	// stream is gone.
	code, b := get(t, hs.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var st JobStatusOut
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone || len(st.Cells) != 16 || st.Summary == nil {
		t.Fatalf("status incomplete: state %s, %d cells, summary %v",
			st.State, len(st.Cells), st.Summary != nil)
	}
}

// TestJobEvaluateMatchesSync mirrors the sweep identity test for evaluate
// jobs, in sampled mode so the stream also carries per-round controller
// events.
func TestJobEvaluateMatchesSync(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	eval := `{"mix":"FGO1","ref_limit":50000,"mode":"sampled","error_budget":0.05}`

	id := createJob(t, hs.URL, `{"evaluate":`+eval+`}`)
	evs := streamEvents(t, hs.URL, id, "")
	types := eventTypes(evs)
	if types["summary"] != 1 || types["done"] != 1 {
		t.Fatalf("lifecycle events wrong: %v", types)
	}
	if types["sampled_round"] == 0 || types["sampled"] == 0 {
		t.Fatalf("no sampled-controller events in stream: %v", types)
	}
	var round struct {
		Stage    string  `json:"stage"`
		Round    int     `json:"round"`
		Budget   float64 `json:"error_budget"`
		Fraction float64 `json:"sampled_fraction"`
	}
	for _, ev := range evs {
		if ev.Type == "sampled_round" {
			if err := json.Unmarshal(ev.Data, &round); err != nil {
				t.Fatalf("bad sampled_round payload: %v", err)
			}
			break
		}
	}
	if round.Budget != 0.05 || round.Round < 0 || round.Fraction <= 0 {
		t.Fatalf("sampled_round payload wrong: %+v", round)
	}

	var summary json.RawMessage
	for _, ev := range evs {
		if ev.Type == "summary" {
			summary = ev.Data
		}
	}
	code, syncBody := post(t, hs.URL+"/v1/evaluate", eval)
	if code != http.StatusOK {
		t.Fatalf("sync evaluate status %d: %s", code, syncBody)
	}
	var syncResp EvaluateResponse
	if err := json.Unmarshal(syncBody, &syncResp); err != nil {
		t.Fatal(err)
	}
	if !syncResp.Cached {
		t.Error("sync evaluate after identical job was not a memo hit")
	}
	var fromJob, fromSync evalPayload
	if err := json.Unmarshal(summary, &fromJob); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(syncBody, &fromSync); err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(fromJob)
	sb, _ := json.Marshal(fromSync)
	if !bytes.Equal(jb, sb) {
		t.Fatalf("summary event and sync response differ:\njob:  %s\nsync: %s", jb, sb)
	}
}

// TestJobMemoHit runs the synchronous request first; the identical job then
// completes from the memo, reporting cached:true in its started event and
// running no engine work.
func TestJobMemoHit(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	sweep := `{"mixes":["FGO1"],"sizes":[1024],"ref_limit":10000}`
	if code, b := post(t, hs.URL+"/v1/sweep", sweep); code != http.StatusOK {
		t.Fatalf("sync sweep status %d: %s", code, b)
	}
	id := createJob(t, hs.URL, `{"sweep":`+sweep+`}`)
	evs := streamEvents(t, hs.URL, id, "")
	types := eventTypes(evs)
	if types["run_start"] != 0 || types["cell"] != 0 {
		t.Fatalf("memo-hit job ran engine work: %v", types)
	}
	var started jobStartedData
	for _, ev := range evs {
		if ev.Type == "started" {
			if err := json.Unmarshal(ev.Data, &started); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !started.Cached {
		t.Fatalf("started event not cached: %+v (types %v)", started, types)
	}
	if types["summary"] != 1 {
		t.Fatalf("memo-hit job missing summary: %v", types)
	}
}

// TestJobStreamReplayAndResume exercises the replay paths: a subscriber
// joining after completion sees the whole stream, and ?from resumes
// mid-stream without duplicates.
func TestJobStreamReplayAndResume(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	id := createJob(t, hs.URL, `{"sweep":{"mixes":["FGO1"],"sizes":[1024],"ref_limit":10000}}`)

	full := streamEvents(t, hs.URL, id, "") // runs to done
	if len(full) < 4 {
		t.Fatalf("stream too short: %d events", len(full))
	}
	// Late joiner: full replay, identical sequence.
	replay := streamEvents(t, hs.URL, id, "")
	if len(replay) != len(full) {
		t.Fatalf("replay returned %d events, want %d", len(replay), len(full))
	}
	for i := range full {
		if replay[i].Seq != full[i].Seq || replay[i].Type != full[i].Type {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, replay[i], full[i])
		}
	}
	// Resume from the middle: only the tail, no duplicates.
	mid := full[len(full)/2].Seq
	tail := streamEvents(t, hs.URL, id, fmt.Sprintf("?from=%d", mid))
	if len(tail) != len(full)-int(mid)+1 {
		t.Fatalf("resume from %d returned %d events, want %d", mid, len(tail), len(full)-int(mid)+1)
	}
	if tail[0].Seq != mid {
		t.Fatalf("resume starts at seq %d, want %d", tail[0].Seq, mid)
	}
}

// TestJobSubscriberDisconnect attaches a subscriber that drops mid-stream;
// the job must still run to completion for the next subscriber, and
// neither the dropped stream nor the finished job may leave a goroutine
// behind. It does not run in parallel: the goroutine count is process-wide.
func TestJobSubscriberDisconnect(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	before := runtime.NumGoroutine()
	id := createJob(t, hs.URL, `{"sweep":{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000}}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil { // first byte arrived
		t.Fatalf("first read: %v", err)
	}
	cancel() // drop the subscriber mid-stream
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		code, b := get(t, hs.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, b)
		}
		var st JobStatusOut
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job ended %s after subscriber disconnect: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish after subscriber disconnect (state %s)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitSettled(t, s, before, "after subscriber disconnect")
}

// TestJobCancel cancels a running job via DELETE once its sweep holds a
// worker slot, so the cancel lands inside the streamed grid's feed loop.
// The stream must end with a canceled event and every goroutine the job
// started must exit. It does not run in parallel: the goroutine count is
// process-wide.
func TestJobCancel(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	before := runtime.NumGoroutine()
	// A grid big enough to still be running when the cancel lands.
	id := createJob(t, hs.URL,
		`{"sweep":{"mixes":["FGO1","FGO2","CGO1","MVS1"],"sizes":[1024,2048,4096,8192,16384,32768],"ref_limit":300000}}`)
	waitInFlight(t, s)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	evs := streamEvents(t, hs.URL, id, "")
	last := evs[len(evs)-1]
	if last.Type != "canceled" {
		t.Fatalf("last event %q, want canceled", last.Type)
	}
	code, b := get(t, hs.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var st JobStatusOut
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	// Canceling a finished job is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status %d, want 409", resp.StatusCode)
	}
	waitSettled(t, s, before, "after cancel")
}

// TestJobValidation covers the request-shape errors.
func TestJobValidation(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"neither", `{}`, http.StatusBadRequest},
		{"both", `{"evaluate":{"mix":"FGO1"},"sweep":{"mixes":["FGO1"]}}`, http.StatusBadRequest},
		{"bad mix", `{"evaluate":{"mix":"nope"}}`, http.StatusBadRequest},
		{"bad sweep", `{"sweep":{"sizes":[-1]}}`, http.StatusBadRequest},
		{"unknown field", `{"sweeep":{}}`, http.StatusBadRequest},
	} {
		if code, b := post(t, hs.URL+"/v1/jobs", tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, b)
		}
	}
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/events"} {
		if code, _ := get(t, hs.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/deadbeef", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: status %d, want 404", resp.StatusCode)
	}
	if code, _ := get(t, hs.URL+"/v1/jobs/x/events?from=notanumber"); code != http.StatusBadRequest {
		t.Errorf("bad from param: status %d, want 400", code)
	}
}

// TestJobList shows created jobs newest first.
func TestJobList(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	a := createJob(t, hs.URL, `{"sweep":{"mixes":["FGO1"],"sizes":[1024],"ref_limit":5000}}`)
	streamEvents(t, hs.URL, a, "") // wait for completion
	code, b := get(t, hs.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	var list struct {
		Jobs []JobStatusOut `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != a {
		t.Fatalf("list = %+v, want job %s", list.Jobs, a)
	}
}

// TestJobSSEFraming checks the Accept-negotiated SSE framing.
func TestJobSSEFraming(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	id := createJob(t, hs.URL, `{"sweep":{"mixes":["FGO1"],"sizes":[1024],"ref_limit":5000}}`)
	streamEvents(t, hs.URL, id, "") // ensure finished, then replay as SSE

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", got)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n\n") {
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE frame %q lacks data: prefix", line)
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
	}
}

// TestJobEventsFlushedThroughHandler checks that the event stream flushes
// through the server's observability middleware: while the job is gated
// on the worker pool and publishes nothing further, the status line and
// the accepted event must already have reached the client.
func TestJobEventsFlushedThroughHandler(t *testing.T) {
	t.Parallel()
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	s.workers <- struct{}{} // hold the only worker slot: the job stays queued
	var once sync.Once
	release := func() { once.Do(func() { <-s.workers }) }
	t.Cleanup(release)
	id := createJob(t, hs.URL, `{"sweep":{"mixes":["FGO1"],"sizes":[1024],"ref_limit":5000}}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type first struct {
		ev  jobs.Event
		err error
	}
	got := make(chan first, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+id+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- first{err: err}
			return
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		var ev jobs.Event
		if err == nil {
			err = json.Unmarshal(line, &ev)
		}
		got <- first{ev, err}
	}()
	select {
	case f := <-got:
		if f.err != nil {
			t.Fatal(f.err)
		}
		if f.ev.Type != jobs.EventAccepted {
			t.Fatalf("first event %q, want %q", f.ev.Type, jobs.EventAccepted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no status line or accepted event while the job was gated: the stream is not flushed")
	}
	if st := s.jobs.Get(id).State(); st != jobs.StateQueued {
		t.Fatalf("job state %s before the gate opened, want queued", st)
	}
	release()
	evs := streamEvents(t, hs.URL, id, "")
	if last := evs[len(evs)-1]; last.Type != jobs.EventDone {
		t.Fatalf("last event %q, want %q", last.Type, jobs.EventDone)
	}
}

// TestJobRegistryFull fills the registry with running jobs and expects 503.
func TestJobRegistryFull(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{MaxJobs: 1, MaxConcurrent: 1})
	// A long-running job occupies the single slot.
	id := createJob(t, hs.URL,
		`{"sweep":{"mixes":["FGO1","FGO2","CGO1"],"sizes":[1024,4096,16384,65536],"ref_limit":300000}}`)
	code, b := post(t, hs.URL+"/v1/jobs", `{"sweep":{"mixes":["CGO1"],"sizes":[2048],"ref_limit":5000}}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create on full registry: status %d (%s)", code, b)
	}
	// Cleanup: cancel the occupant so the test server tears down promptly.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}
