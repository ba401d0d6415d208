package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheeval/internal/jobs"
	"cacheeval/internal/obs"
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
	// per grid pass (8).
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
// jobs, with a victim buffer and an L2 so the stream also carries the
// hierarchy engine event.
func TestJobEvaluateMatchesSync(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	eval := `{"mix":"FGO1","ref_limit":50000,"victim":4,"l2":{"size":16384}}`

	id := createJob(t, hs.URL, `{"evaluate":`+eval+`}`)
	evs := streamEvents(t, hs.URL, id, "")
	types := eventTypes(evs)
	if types["summary"] != 1 || types["done"] != 1 {
		t.Fatalf("lifecycle events wrong: %v", types)
	}
	if types["hierarchy"] != 1 {
		t.Fatalf("want one hierarchy engine event in stream: %v", types)
	}
	var hier obs.HierarchyRunEvent
	for _, ev := range evs {
		if ev.Type == obs.EventHierarchyRun {
			if err := json.Unmarshal(ev.Data, &hier); err != nil {
				t.Fatalf("bad hierarchy payload: %v", err)
			}
		}
	}
	if hier.Stage != "simulate:FGO1" || hier.L2Fetches == 0 {
		t.Fatalf("hierarchy payload wrong: %+v", hier)
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

// TestJobAndSyncShareFlights pins that the two front ends run one pipeline:
// whichever side spawns a flight, an identical request from the other side
// joins it. The server's single worker slot is held for the whole setup —
// standing in for an unrelated long simulation — so the spawning flight
// stays queued until both sides are waiting on it.
func TestJobAndSyncShareFlights(t *testing.T) {
	t.Parallel()
	const sweep = `{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000}`

	// run holds the slot, starts the first front end, waits for its flight,
	// starts the second, waits for it to join, then releases the slot. It
	// returns the sync reply and the job's event stream.
	run := func(t *testing.T, jobFirst bool) (SweepResponse, []byte, []jobs.Event) {
		s, hs := newTestServer(t, Config{MaxConcurrent: 1})
		s.workers <- struct{}{}
		release := sync.OnceFunc(func() { <-s.workers })
		t.Cleanup(release) // before the server's teardown, which waits on the flight
		type reply struct {
			code int
			body []byte
			err  error
		}
		syncDone := make(chan reply, 1)
		postSync := func() {
			go func() {
				resp, err := http.Post(hs.URL+"/v1/sweep", "application/json", strings.NewReader(sweep))
				if err != nil {
					syncDone <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				syncDone <- reply{resp.StatusCode, b, err}
			}()
		}
		var id string
		if jobFirst {
			id = createJob(t, hs.URL, `{"sweep":`+sweep+`}`)
			waitFlightWaiters(t, s, 1)
			postSync()
		} else {
			postSync()
			waitFlightWaiters(t, s, 1)
			id = createJob(t, hs.URL, `{"sweep":`+sweep+`}`)
		}
		waitFlightWaiters(t, s, 2)
		release()
		got := <-syncDone
		if got.err != nil {
			t.Fatal(got.err)
		}
		if got.code != http.StatusOK {
			t.Fatalf("sync sweep status %d: %s", got.code, got.body)
		}
		var resp SweepResponse
		if err := json.Unmarshal(got.body, &resp); err != nil {
			t.Fatal(err)
		}
		// The job counts its outcome before it publishes done, so only
		// once its stream has been read to the end do both sides' counts
		// show.
		evs := streamEvents(t, hs.URL, id, "")
		if snap := s.snapshot(); snap.SimRuns != 1 || snap.FlightJoins != 1 {
			t.Fatalf("sim runs %d, flight joins %d; want 1 and 1", snap.SimRuns, snap.FlightJoins)
		}
		return resp, got.body, evs
	}

	// check compares the job's started event and summary with the sync
	// reply: the summary must be the sync payload byte for byte.
	check := func(t *testing.T, syncBody []byte, evs []jobs.Event, shared bool) map[string]int {
		var started jobStartedData
		var summary json.RawMessage
		for _, ev := range evs {
			switch ev.Type {
			case "started":
				if err := json.Unmarshal(ev.Data, &started); err != nil {
					t.Fatal(err)
				}
			case "summary":
				summary = ev.Data
			}
		}
		if started != (jobStartedData{Shared: shared}) {
			t.Errorf("started event %+v, want shared=%v and not cached", started, shared)
		}
		var fromJob, fromSync sweepPayload
		if err := json.Unmarshal(summary, &fromJob); err != nil {
			t.Fatalf("decoding summary event: %v", err)
		}
		if err := json.Unmarshal(syncBody, &fromSync); err != nil {
			t.Fatal(err)
		}
		jb, _ := json.Marshal(fromJob)
		sb, _ := json.Marshal(fromSync)
		if !bytes.Equal(jb, sb) {
			t.Errorf("summary event and sync response differ:\njob:  %s\nsync: %s", jb, sb)
		}
		return eventTypes(evs)
	}

	t.Run("job joins sync", func(t *testing.T) {
		t.Parallel()
		resp, body, evs := run(t, false)
		if resp.Cached || resp.Shared {
			t.Errorf("spawning sync sweep reported cached=%v shared=%v", resp.Cached, resp.Shared)
		}
		// The flight is labelled by the sync request that spawned it, so
		// the job's stream carries no engine or cell events.
		if types := check(t, body, evs, true); types["run_start"] != 0 || types["cell"] != 0 {
			t.Errorf("joining job streamed engine work: %v", types)
		}
	})
	t.Run("sync joins job", func(t *testing.T) {
		t.Parallel()
		resp, body, evs := run(t, true)
		if resp.Cached || !resp.Shared {
			t.Errorf("joining sync sweep reported cached=%v shared=%v, want shared only",
				resp.Cached, resp.Shared)
		}
		// 1 mix x 4 passes x 2 sizes cells, from the job's own flight.
		if types := check(t, body, evs, false); types["run_start"] == 0 || types["cell"] != 8 {
			t.Errorf("spawning job's stream lacks its engine or cell events: %v", types)
		}
	})
}

// waitFlightWaiters polls until the server's flights have n waiters in all.
func waitFlightWaiters(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := 0
		for _, f := range s.flights {
			got += f.waiters
		}
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights have %d waiters, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
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
		{"non-power size", `{"sweep":{"mixes":["FGO1"],"sizes":[48]}}`, http.StatusBadRequest},
		{"line above size", `{"sweep":{"mixes":["FGO1"],"sizes":[32],"line_size":64}}`, http.StatusBadRequest},
		{"non-power line", `{"sweep":{"mixes":["FGO1"],"line_size":3}}`, http.StatusBadRequest},
		{"duplicate mix", `{"sweep":{"mixes":["FGO1","FGO1"],"sizes":[1024],"ref_limit":1000}}`, http.StatusBadRequest},
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
