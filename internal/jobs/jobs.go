// Package jobs implements the async-job subsystem behind POST /v1/jobs: a
// bounded registry of simulation jobs, each with a replayable event buffer
// and broadcast fan-out to any number of stream subscribers.
//
// Design (see DESIGN.md §11):
//
//   - Publishing never blocks. Events append to the job's bounded buffer
//     under its lock and a broadcast channel is closed; the engine
//     goroutine is done in microseconds regardless of how many (or how
//     slow) the subscribers are.
//   - Subscribers pull. A consumer loops EventsSince(cursor) → write →
//     wait on Updated(); a late joiner replays the buffer from the start
//     (or any seq), a disconnected one just stops pulling, and resuming
//     after a disconnect is the same EventsSince call with the old cursor.
//   - The buffer is a ring: past Config.EventBuffer events the oldest
//     drop first and EventsSince reports the gap, so one runaway job
//     cannot hold unbounded memory. Defaults are sized so that no
//     realistic sweep (mixes × 4 passes × sizes cells plus throttled
//     progress ticks) ever wraps.
//   - The registry is bounded and TTL-evicts finished jobs: expired jobs
//     go first, then the oldest finished job; when every held job is
//     still live, Create refuses (the server maps that to 503).
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will publish no further
// events.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry of a job's stream: a per-job sequence number
// (starting at 1; 0 is reserved for synthetic notices such as gap
// markers), the event type, milliseconds since the job was accepted, and
// the type-specific payload, pre-marshaled at publish time so every
// subscriber serializes it identically and replay costs no re-encoding.
type Event struct {
	Seq       uint64          `json:"seq"`
	Type      string          `json:"type"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Data      json.RawMessage `json:"data,omitempty"`
}

// Event types owned by the job lifecycle itself. Engine-originated types
// (run_start, progress, cell, hierarchy, ...) are chosen by the
// publisher; see obs.EventProbe and the server's jobs handler.
const (
	EventAccepted = "accepted"
	EventStarted  = "started"
	EventSummary  = "summary"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
	// EventGap is synthesized (seq 0) by a reader when the ring buffer
	// dropped events its cursor still wanted.
	EventGap = "gap"
)

// ErrRegistryFull is returned by Create when the registry holds MaxJobs
// jobs and none is finished (evictable).
var ErrRegistryFull = errors.New("jobs: registry full")

// Config tunes a Registry; the zero value is production-ready.
type Config struct {
	// MaxJobs bounds the registry; default 64.
	MaxJobs int
	// TTL is how long a finished job stays fetchable; default 10 minutes.
	TTL time.Duration
	// EventBuffer caps each job's replayable event buffer; default 4096.
	EventBuffer int
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Minute
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 4096
	}
	return c
}

// Registry holds the live and recently finished jobs.
type Registry struct {
	cfg Config
	now func() time.Time // injectable clock for TTL tests

	mu   sync.Mutex
	jobs map[string]*Job

	created       atomic.Int64
	evicted       atomic.Int64
	eventsEmitted atomic.Int64
	subscribers   atomic.Int64
}

// NewRegistry builds a Registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg.withDefaults(), now: time.Now, jobs: make(map[string]*Job)}
}

// Create registers a new job in StateQueued, evicting expired (then the
// oldest finished) jobs to make room. It fails with ErrRegistryFull only
// when every held job is still live.
func (r *Registry) Create(kind, requestID string) (*Job, error) {
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID: id, Kind: kind, RequestID: requestID,
		reg: r, created: r.now(), state: StateQueued,
		updated: make(chan struct{}),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	if len(r.jobs) >= r.cfg.MaxJobs && !r.evictOldestFinishedLocked() {
		return nil, ErrRegistryFull
	}
	r.jobs[id] = j
	r.created.Add(1)
	return j, nil
}

// Get returns a job by ID, nil if unknown or already evicted.
func (r *Registry) Get(id string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	return r.jobs[id]
}

// List returns every held job, newest first.
func (r *Registry) List() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	out := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	for i := 1; i < len(out); i++ { // insertion sort: n is small (MaxJobs)
		for k := i; k > 0 && out[k].created.After(out[k-1].created); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// sweepLocked evicts finished jobs older than the TTL. Called under r.mu
// from every registry entry point, so eviction needs no janitor goroutine.
func (r *Registry) sweepLocked(now time.Time) {
	cutoff := now.Add(-r.cfg.TTL)
	for id, j := range r.jobs {
		if done, at := j.finishedAt(); done && at.Before(cutoff) {
			delete(r.jobs, id)
			r.evicted.Add(1)
		}
	}
}

// evictOldestFinishedLocked removes the oldest finished job, reporting
// whether it found one.
func (r *Registry) evictOldestFinishedLocked() bool {
	var victim string
	var oldest time.Time
	for id, j := range r.jobs {
		if done, at := j.finishedAt(); done && (victim == "" || at.Before(oldest)) {
			victim, oldest = id, at
		}
	}
	if victim == "" {
		return false
	}
	delete(r.jobs, victim)
	r.evicted.Add(1)
	return true
}

// Counts returns the registry's gauge values: jobs currently running,
// jobs accepted but not yet running, and the total held (terminal jobs
// awaiting TTL eviction included).
func (r *Registry) Counts() (active, queued, held int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		switch j.State() {
		case StateRunning:
			active++
		case StateQueued:
			queued++
		}
	}
	return active, queued, len(r.jobs)
}

// Created returns the lifetime count of jobs accepted.
func (r *Registry) Created() int64 { return r.created.Load() }

// Evicted returns the lifetime count of jobs evicted (TTL or capacity).
func (r *Registry) Evicted() int64 { return r.evicted.Load() }

// EventsEmitted returns the lifetime count of events published across all
// jobs.
func (r *Registry) EventsEmitted() int64 { return r.eventsEmitted.Load() }

// Subscribers returns the number of event-stream consumers currently
// attached (via SubscriberGauge).
func (r *Registry) Subscribers() int64 { return r.subscribers.Load() }

// SubscriberGauge counts a stream consumer in for the duration between the
// call and the returned release func. The server brackets each
// /v1/jobs/{id}/events handler with it.
func (r *Registry) SubscriberGauge() (release func()) {
	r.subscribers.Add(1)
	var once sync.Once
	return func() { once.Do(func() { r.subscribers.Add(-1) }) }
}

// newJobID returns a fresh 16-hex-digit job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Job is one async simulation: lifecycle state plus the event buffer its
// subscribers replay. All methods are safe for concurrent use.
type Job struct {
	ID        string
	Kind      string // "evaluate" or "sweep"
	RequestID string // the creating request's X-Request-ID

	reg     *Registry
	created time.Time

	mu       sync.Mutex
	state    State
	errMsg   string
	doneAt   time.Time
	events   []Event // ring from firstSeq; bounded drop-oldest
	firstSeq uint64  // seq of events[0]; seqs start at 1
	nextSeq  uint64  // seq the next published event gets
	dropped  uint64  // events dropped off the front, lifetime
	updated  chan struct{}
	cancel   context.CancelFunc
	cancelOn bool // cancel requested before SetCancel delivered one
}

// Created returns when the job was accepted.
func (j *Job) Created() time.Time { return j.created }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message for StateFailed, "" otherwise.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// finishedAt reports whether the job is terminal and since when.
func (j *Job) finishedAt() (bool, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal(), j.doneAt
}

// Publish appends one event (marshaling data once) and wakes every
// subscriber. It never blocks on consumers; when the buffer is full the
// oldest event drops. Publishing to a terminal job is a no-op — late
// engine callbacks racing a cancellation must not resurrect the stream.
func (j *Job) Publish(typ string, data any) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			// A payload the server cannot marshal is a programming error;
			// surface it in-band rather than panicking an engine goroutine.
			b, _ = json.Marshal(struct {
				Error string `json:"error"`
			}{"marshal: " + err.Error()})
		}
		raw = b
	}
	now := j.reg.now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.publishLocked(typ, raw, now)
	j.mu.Unlock()
}

// publishLocked appends an event and broadcasts; callers hold j.mu.
func (j *Job) publishLocked(typ string, raw json.RawMessage, now time.Time) {
	if j.nextSeq == 0 {
		j.nextSeq = 1
		j.firstSeq = 1
	}
	j.events = append(j.events, Event{
		Seq: j.nextSeq, Type: typ,
		ElapsedMS: float64(now.Sub(j.created)) / float64(time.Millisecond),
		Data:      raw,
	})
	j.nextSeq++
	if max := j.reg.cfg.EventBuffer; len(j.events) > max {
		drop := len(j.events) - max
		j.events = append(j.events[:0], j.events[drop:]...)
		j.firstSeq += uint64(drop)
		j.dropped += uint64(drop)
	}
	j.reg.eventsEmitted.Add(1)
	close(j.updated)
	j.updated = make(chan struct{})
}

// EventsSince returns a copy of the buffered events with seq >= from, the
// cursor to resume from, whether the job is terminal (no further events
// will come), and the first buffered seq — when that is above from, the
// ring dropped events the cursor wanted and the reader should surface a
// gap.
func (j *Job) EventsSince(from uint64) (evs []Event, next uint64, terminal bool, first uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	first = j.firstSeq
	// Offset arithmetic stays in uint64: a from far beyond nextSeq (the
	// query parameter is untrusted) must not wrap negative on conversion.
	start := uint64(0)
	if from > j.firstSeq {
		start = from - j.firstSeq
	}
	if start < uint64(len(j.events)) {
		evs = append(evs, j.events[start:]...)
	}
	return evs, j.nextSeq, j.state.Terminal(), first
}

// NextSeq returns the seq the next published event would get (1 when
// nothing has been published).
func (j *Job) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.nextSeq == 0 {
		return 1
	}
	return j.nextSeq
}

// Updated returns a channel closed at the next publish or state change.
// Fetch it before EventsSince: wait-then-read can miss nothing that way.
func (j *Job) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.updated
}

// SetCancel installs the run's cancel func. If cancellation was requested
// before the runner got this far, it fires immediately.
func (j *Job) SetCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	fire := j.cancelOn
	j.mu.Unlock()
	if fire && cancel != nil {
		cancel()
	}
}

// Cancel requests cancellation. It reports false when the job is already
// terminal. The state flips to canceled (and the canceled event publishes)
// when the runner observes its context die, not here — except for a job
// whose runner never started, which Finish handles the same way.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelOn = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// CancelRequested reports whether Cancel was called.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelOn
}

// Start transitions queued → running and publishes the started event with
// the given payload. A second Start (another waiter's flight) is a no-op.
func (j *Job) Start(data any) {
	raw, _ := json.Marshal(data)
	now := j.reg.now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.publishLocked(EventStarted, raw, now)
}

// Finish moves the job to its terminal state and publishes the matching
// event: done (summary is published separately, before Finish), failed
// with the error message, or canceled when cancellation was requested.
func (j *Job) Finish(err error) {
	now := j.reg.now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.publishLocked(EventDone, nil, now)
	case j.cancelOn:
		j.state = StateCanceled
		j.publishLocked(EventCanceled, nil, now)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		raw, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{j.errMsg})
		j.publishLocked(EventFailed, raw, now)
	}
	j.doneAt = now
}

// Dropped returns how many events the ring dropped over the job's life.
func (j *Job) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
