package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cacheeval/internal/experiments"
	"cacheeval/internal/jobs"
	"cacheeval/internal/obs"
)

// The async job API: POST /v1/jobs accepts the same request shapes as the
// synchronous endpoints and returns immediately with a job ID; the job's
// progress streams from GET /v1/jobs/{id}/events as NDJSON (or SSE when
// the client asks for text/event-stream), its status and completed cells
// are fetchable from GET /v1/jobs/{id} after a disconnect, and DELETE
// cancels it. Jobs compute the same memoization key as their synchronous
// twins, so an async sweep populates the memo a later POST /v1/sweep hits
// — and vice versa: a job whose key is already memoized completes with
// just accepted/started/summary events.

// jobProgressInterval throttles per-stage engine progress events. Engines
// emit a progress event every 65k references, which on a fast simulation is
// thousands of times a second; streaming clients need a few per second.
const jobProgressInterval = 250 * time.Millisecond

// JobRequest is the POST /v1/jobs body: exactly one of the synchronous
// request shapes, to run asynchronously. The embedded request's fields
// (including timeout_ms, which bounds the job's run, and trace) mean
// exactly what they do on the synchronous endpoint.
type JobRequest struct {
	Evaluate *EvaluateRequest `json:"evaluate,omitempty"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
}

// JobAccepted is the POST /v1/jobs reply.
type JobAccepted struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	State     jobs.State `json:"state"`
	RequestID string     `json:"request_id"`
	StatusURL string     `json:"status_url"`
	EventsURL string     `json:"events_url"`
}

// jobStartedData is the payload of the "started" event: whether the job's
// answer came from the memo or by joining a concurrent identical flight
// (in which case no engine events follow — the simulation is labelled by
// whoever spawned it) rather than a fresh simulation.
type jobStartedData struct {
	Cached bool `json:"cached"`
	Shared bool `json:"shared"`
}

// JobCellOut is the payload of a sweep job's "cell" event: one
// (mix, organization, fetch policy, size) result, emitted as soon as the
// grid pass that computed it finishes.
type JobCellOut struct {
	Mix      string     `json:"mix"`
	Split    bool       `json:"split"`
	Prefetch bool       `json:"prefetch"`
	Size     int        `json:"size"`
	Result   VariantOut `json:"result"`
}

// JobStatusOut is the GET /v1/jobs/{id} reply: enough to resume after a
// disconnect without replaying the stream — the completed cells so far and,
// once done, the same summary payload the stream's terminal event carried.
type JobStatusOut struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	State     jobs.State `json:"state"`
	RequestID string     `json:"request_id"`
	CreatedAt time.Time  `json:"created_at"`
	ElapsedMS float64    `json:"elapsed_ms"`
	NextSeq   uint64     `json:"next_seq"`
	// DroppedEvents counts ring-buffer evictions over the job's life; when
	// non-zero the Cells snapshot may be missing early completions.
	DroppedEvents uint64            `json:"dropped_events,omitempty"`
	Error         string            `json:"error,omitempty"`
	Cells         []json.RawMessage `json:"cells,omitempty"`
	Summary       json.RawMessage   `json:"summary,omitempty"`
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.JobRequests.Add(1)
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	if (req.Evaluate == nil) == (req.Sweep == nil) {
		s.error(w, http.StatusBadRequest,
			`a job needs exactly one of "evaluate" or "sweep"`)
		return
	}
	rid := obs.RequestID(r.Context())

	// Validate and prepare the run up front so a bad request fails with the
	// same 400 the synchronous endpoint gives, not an async "failed" event.
	var call *simCall
	var verr *requestError
	if req.Evaluate != nil {
		call, verr = s.evaluateCall(req.Evaluate)
	} else {
		call, verr = s.sweepCall(req.Sweep)
	}
	if verr != nil {
		s.error(w, verr.code, verr.msg)
		return
	}

	job, err := s.jobs.Create(call.kind, rid)
	if err != nil {
		if errors.Is(err, jobs.ErrRegistryFull) {
			s.error(w, http.StatusServiceUnavailable,
				"job registry full; retry when a job finishes")
			return
		}
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The job outlives this request: its context descends from the server's
	// base context, bounded by the request's (or the server's default)
	// timeout, and carries the creating request's observability identity so
	// engine log lines and events correlate with the accepted request.
	jctx, jcancel := s.deadline(s.baseCtx, call.timeoutMS)
	jctx = obs.WithRequestID(jctx, rid)
	jctx = obs.WithLogger(jctx, obs.Logger(r.Context()).With("job_id", job.ID))
	job.SetCancel(jcancel)
	job.Publish(jobs.EventAccepted, JobAccepted{
		ID: job.ID, Kind: call.kind, State: jobs.StateQueued, RequestID: rid,
		StatusURL: "/v1/jobs/" + job.ID, EventsURL: "/v1/jobs/" + job.ID + "/events",
	})
	go func() {
		defer jcancel()
		s.runJob(jctx, job, call)
	}()
	writeJSON(w, http.StatusAccepted, JobAccepted{
		ID: job.ID, Kind: call.kind, State: job.State(), RequestID: rid,
		StatusURL: "/v1/jobs/" + job.ID, EventsURL: "/v1/jobs/" + job.ID + "/events",
	})
}

// jobSink returns the sink that publishes a job's engine events to its
// stream, throttling progress and logging run starts and ends with the
// job's request identity.
func jobSink(jctx context.Context, job *jobs.Job) *obs.EventProbe {
	return &obs.EventProbe{
		OnEvent:             func(typ string, data any) { job.Publish(typ, data) },
		RequestID:           job.RequestID,
		Logger:              obs.Logger(jctx),
		MinProgressInterval: jobProgressInterval,
	}
}

// runJob executes one job to its terminal state: it runs the call's flight
// through the same singleflight/memo machinery as the synchronous handlers,
// with the job's event-publishing sink teed with the metrics sink, "started"
// published when the flight takes a worker slot and each completed grid pass
// published as cell events. It then publishes the terminal summary (the
// memoized payload a synchronous call would return) and marks the job done.
func (s *Server) runJob(jctx context.Context, job *jobs.Job, call *simCall) {
	sink := obs.Tee(jobSink(jctx, job), simSink{s})
	onStart := func() { job.Start(jobStartedData{}) }
	onPass := func(p experiments.PassResult) {
		for si, out := range p.Results {
			job.Publish("cell", JobCellOut{
				Mix: p.Mix, Split: p.Split, Prefetch: p.Prefetch,
				Size: p.Sizes[si], Result: variantOut(out, p.Split),
			})
		}
	}
	val, hit, shared, err := s.do(jctx, call.key, s.flight(jctx, call, sink, onStart, onPass))
	if err != nil {
		job.Finish(err)
		if job.State() == jobs.StateFailed {
			obs.Logger(jctx).Error("job: failed", "error", err.Error())
		} else {
			obs.Logger(jctx).Info("job: canceled")
		}
		return
	}
	// A memo hit or a joined flight never ran this job's flight, so the job
	// may still be queued; Start is a no-op when the flight already started
	// it.
	job.Start(jobStartedData{Cached: hit, Shared: shared})
	s.countOutcome(hit, shared)
	job.Publish(jobs.EventSummary, val.(simResult).Payload)
	job.Finish(nil)
	obs.Logger(jctx).Info("job: done", "cached", hit, "shared", shared)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	out := make([]JobStatusOut, 0, len(list))
	for _, j := range list {
		out = append(out, JobStatusOut{
			ID: j.ID, Kind: j.Kind, State: j.State(), RequestID: j.RequestID,
			CreatedAt: j.Created(), NextSeq: j.NextSeq(), Error: j.Err(),
			DroppedEvents: j.Dropped(),
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatusOut `json:"jobs"`
	}{out})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		s.error(w, http.StatusNotFound, "unknown job; it may have been evicted")
		return
	}
	out := JobStatusOut{
		ID: job.ID, Kind: job.Kind, State: job.State(), RequestID: job.RequestID,
		CreatedAt: job.Created(), NextSeq: job.NextSeq(), Error: job.Err(),
		DroppedEvents: job.Dropped(),
	}
	out.ElapsedMS = float64(time.Since(job.Created())) / float64(time.Millisecond)
	evs, _, _, _ := job.EventsSince(0)
	for _, ev := range evs {
		switch ev.Type {
		case "cell":
			out.Cells = append(out.Cells, ev.Data)
		case jobs.EventSummary:
			out.Summary = ev.Data
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		s.error(w, http.StatusNotFound, "unknown job; it may have been evicted")
		return
	}
	if !job.Cancel() {
		s.error(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID    string     `json:"id"`
		State jobs.State `json:"state"`
	}{job.ID, job.State()})
}

// handleJobEvents streams a job's events. The default framing is NDJSON
// (one jobs.Event per line, chunked transfer); an Accept header containing
// text/event-stream switches to SSE framing. ?from=N resumes from sequence
// number N — a reconnecting client passes the last seq it saw plus one.
// When the ring buffer has already dropped events the cursor wanted, a
// synthetic seq-0 "gap" event reports how many went missing.
//
// The loop never holds the job locked while writing: it snapshots
// EventsSince, writes, then waits for the next publish. A slow or stalled
// subscriber therefore never stalls the engine — at worst it lags and
// eventually observes a gap.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	cursor := uint64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			s.error(w, http.StatusBadRequest, "from must be an unsigned integer")
			return
		}
		if n > 0 {
			cursor = n
		}
	}
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		s.error(w, http.StatusNotFound, "unknown job; it may have been evicted")
		return
	}
	release := s.jobs.SubscriberGauge()
	defer release()
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the status line and headers immediately so a client attaching
		// to a quiet job sees the connection succeed before the next publish.
		flusher.Flush()
	}
	write := func(ev jobs.Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = w.Write(append(append([]byte("data: "), b...), '\n', '\n'))
		} else {
			_, err = w.Write(append(b, '\n'))
		}
		return err == nil
	}
	done := r.Context().Done()
	for {
		ch := job.Updated()
		evs, next, terminal, first := job.EventsSince(cursor)
		if first > cursor {
			gap, _ := json.Marshal(struct {
				Missed uint64 `json:"missed"`
			}{first - cursor})
			if !write(jobs.Event{Seq: 0, Type: jobs.EventGap, Data: gap}) {
				return
			}
		}
		for _, ev := range evs {
			if !write(ev) {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if next > cursor {
			cursor = next
		}
		if terminal {
			// The snapshot was atomic: a terminal job publishes nothing
			// further, so everything up to next has been written.
			return
		}
		select {
		case <-done:
			return
		case <-ch:
		}
	}
}
