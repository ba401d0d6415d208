// Command cachewatch is a terminal monitor for cacheserved's async job API.
// It submits a sweep or evaluate job (or attaches to a running one), consumes
// the NDJSON event stream from GET /v1/jobs/{id}/events, and renders live
// per-stage progress bars with engine throughput, finishing with the job's
// summary payload.
//
// Examples:
//
//	cachewatch -sweep '{"mixes":["FGO1","CGO1"],"sizes":[1024,4096]}'
//	cachewatch -evaluate '{"mix":"VAXIMA","l2":{"size":65536}}'
//	cachewatch -job 1f62a9c401b2d3e4            # attach to a running job
//	cachewatch -job 1f62a9c401b2d3e4 -from 40   # resume after a disconnect
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"cacheeval/internal/jobs"
	"cacheeval/internal/obs"
	"cacheeval/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachewatch:", err)
		os.Exit(1)
	}
}

// run executes the monitor; factored out of main for testing.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cachewatch", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "http://localhost:8080", "cacheserved base URL")
	jobID := fs.String("job", "", "attach to an existing job ID instead of submitting one")
	sweep := fs.String("sweep", "", "submit a sweep job with this JSON request body")
	eval := fs.String("evaluate", "", "submit an evaluate job with this JSON request body")
	from := fs.Uint64("from", 0, "resume the event stream from this sequence number")
	plain := fs.Bool("plain", false, "line-per-event output instead of live redraw (for logs and pipes)")
	interval := fs.Duration("interval", 500*time.Millisecond, "minimum time between live redraws")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := 0
	for _, s := range []string{*jobID, *sweep, *eval} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("exactly one of -job, -sweep, or -evaluate is required")
	}

	id := *jobID
	if id == "" {
		var err error
		id, err = submit(*addr, *sweep, *eval, out)
		if err != nil {
			return err
		}
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", *addr, id, *from))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("events stream: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return watch(resp.Body, out, *plain, *interval)
}

// submit posts the job and returns its ID.
func submit(addr, sweep, eval string, out io.Writer) (string, error) {
	var body []byte
	var err error
	if sweep != "" {
		body, err = json.Marshal(struct {
			Sweep json.RawMessage `json:"sweep"`
		}{json.RawMessage(sweep)})
	} else {
		body, err = json.Marshal(struct {
			Evaluate json.RawMessage `json:"evaluate"`
		}{json.RawMessage(eval)})
	}
	if err != nil {
		return "", fmt.Errorf("request body: %w", err)
	}
	resp, err := http.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("create job: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var acc struct {
		ID   string `json:"id"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil {
		return "", fmt.Errorf("create job reply: %w", err)
	}
	fmt.Fprintf(out, "job %s (%s) accepted\n", acc.ID, acc.Kind)
	return acc.ID, nil
}

// stageView is the monitor's live state for one engine stage.
type stageView struct {
	refs, total int64
	rate        float64
	done        bool
}

// monitor accumulates the event stream into renderable state.
type monitor struct {
	out      io.Writer
	plain    bool
	stages   map[string]*stageView
	order    []string // stage insertion order, for stable rendering
	cells    int
	notes    []string // one-shot findings: stream gaps
	summary  json.RawMessage
	rendered int // lines drawn by the last live frame, for cursor-up redraw
}

// watch consumes one NDJSON event stream to its terminal event, rendering
// either a line per event (plain) or a live-redrawn progress frame.
func watch(stream io.Reader, out io.Writer, plain bool, interval time.Duration) error {
	m := &monitor{out: out, plain: plain, stages: make(map[string]*stageView)}
	// A streaming decoder rather than a line scanner: a big sweep's summary
	// event packs every cell into one JSON value and can exceed any fixed
	// per-line cap.
	dec := json.NewDecoder(stream)
	var last time.Time
	terminal := ""
	for {
		var ev jobs.Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("event stream: %w", err)
		}
		m.apply(ev)
		switch ev.Type {
		case jobs.EventDone, jobs.EventFailed, jobs.EventCanceled:
			terminal = ev.Type
		}
		if !plain && (terminal != "" || time.Since(last) >= interval) {
			m.renderLive()
			last = time.Now()
		}
	}
	if terminal == "" {
		return fmt.Errorf("event stream ended without a terminal event")
	}
	m.finish(terminal)
	if terminal != jobs.EventDone {
		return fmt.Errorf("job %s", terminal)
	}
	return nil
}

// apply folds one event into the monitor state, printing a line immediately
// in plain mode.
func (m *monitor) apply(ev jobs.Event) {
	var line string
	switch ev.Type {
	case jobs.EventAccepted:
		line = "accepted"
	case jobs.EventStarted:
		var d struct {
			Cached bool `json:"cached"`
			Shared bool `json:"shared"`
		}
		json.Unmarshal(ev.Data, &d)
		line = "started"
		if d.Cached {
			line = "started (memoized answer; no simulation will run)"
		} else if d.Shared {
			line = "started (joined an identical in-flight run)"
		}
	case obs.EventRunStart:
		var d obs.RunStartEvent
		json.Unmarshal(ev.Data, &d)
		m.stage(d.Stage).total = d.TotalRefs
		line = fmt.Sprintf("%s: start (%d refs)", d.Stage, d.TotalRefs)
	case obs.EventProgress:
		var d obs.ProgressEvent
		json.Unmarshal(ev.Data, &d)
		sv := m.stage(d.Stage)
		sv.refs, sv.rate = d.Refs, d.RefsPerSec
		line = fmt.Sprintf("%s: %d/%d refs (%s refs/s)",
			d.Stage, d.Refs, d.TotalRefs, siCount(d.RefsPerSec))
	case obs.EventRunEnd:
		var d obs.RunEndEvent
		json.Unmarshal(ev.Data, &d)
		sv := m.stage(d.Stage)
		sv.refs, sv.rate, sv.done = d.Refs, d.RefsPerSec, true
		if sv.total == 0 {
			sv.total = d.Refs
		}
		line = fmt.Sprintf("%s: done (%d refs, %.0fms, %s refs/s)",
			d.Stage, d.Refs, d.ElapsedMS, siCount(d.RefsPerSec))
	case "cell":
		m.cells++
		var d struct {
			Mix      string `json:"mix"`
			Split    bool   `json:"split"`
			Prefetch bool   `json:"prefetch"`
			Size     int    `json:"size"`
		}
		json.Unmarshal(ev.Data, &d)
		line = fmt.Sprintf("cell: %s size=%d split=%v prefetch=%v", d.Mix, d.Size, d.Split, d.Prefetch)
	case obs.EventHierarchyRun, obs.EventMissCauses:
		line = ev.Type
	case jobs.EventGap:
		var d struct {
			Missed uint64 `json:"missed"`
		}
		json.Unmarshal(ev.Data, &d)
		note := fmt.Sprintf("stream gap: %d events dropped from the replay buffer", d.Missed)
		m.notes = append(m.notes, note)
		line = note
	case jobs.EventSummary:
		m.summary = ev.Data
		line = "summary received"
	case jobs.EventDone, jobs.EventFailed, jobs.EventCanceled:
		line = ev.Type
		if ev.Type == jobs.EventFailed {
			var d struct {
				Error string `json:"error"`
			}
			json.Unmarshal(ev.Data, &d)
			line = "failed: " + d.Error
		}
	default:
		line = ev.Type
	}
	if m.plain {
		fmt.Fprintf(m.out, "[%8.1fs] %s\n", ev.ElapsedMS/1000, line)
	}
}

func (m *monitor) stage(name string) *stageView {
	sv := m.stages[name]
	if sv == nil {
		sv = &stageView{}
		m.stages[name] = sv
		m.order = append(m.order, name)
	}
	return sv
}

// renderLive redraws the progress frame in place: cursor up over the
// previous frame, then one bar per stage plus a cells counter.
func (m *monitor) renderLive() {
	if m.rendered > 0 {
		fmt.Fprintf(m.out, "\x1b[%dA", m.rendered)
	}
	width := 0
	for _, name := range m.order {
		if len(name) > width {
			width = len(name)
		}
	}
	lines := 0
	for _, name := range m.order {
		sv := m.stages[name]
		frac := 0.0
		if sv.total > 0 {
			frac = float64(sv.refs) / float64(sv.total)
		}
		if sv.done {
			frac = 1
		}
		fmt.Fprintf(m.out, "\x1b[2K%-*s %s %3.0f%% %9s refs/s\n",
			width, name, textplot.Bar(frac, 24), 100*frac, siCount(sv.rate))
		lines++
	}
	if m.cells > 0 {
		fmt.Fprintf(m.out, "\x1b[2Kcells: %d\n", m.cells)
		lines++
	}
	m.rendered = lines
}

// finish prints the terminal report: accumulated notes, the outcome, and
// the summary payload (indented JSON), exactly what the synchronous
// endpoint would have answered.
func (m *monitor) finish(terminal string) {
	if !m.plain {
		for _, n := range m.notes {
			fmt.Fprintln(m.out, n)
		}
		done := 0
		for _, sv := range m.stages {
			if sv.done {
				done++
			}
		}
		fmt.Fprintf(m.out, "%s: %d stages, %d cells\n", terminal, done, m.cells)
	}
	if m.summary != nil {
		var buf bytes.Buffer
		if err := json.Indent(&buf, m.summary, "", "  "); err == nil {
			fmt.Fprintln(m.out, buf.String())
		}
	}
}

// siCount renders a rate compactly (1234567 -> "1.2M").
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
