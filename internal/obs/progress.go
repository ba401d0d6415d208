package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressProbe is a Sink that renders engine progress as human-readable
// lines: a throttled in-flight line per stage (with refs/second and, when
// the total is known, an ETA) and a completion line with the stage's wall
// time. It is
// safe for concurrent use across parallel simulation workers. Used by
// `paperrepro -v` and `calibrate -v`.
type ProgressProbe struct {
	w io.Writer
	// MinInterval throttles in-flight progress lines per stage; completion
	// lines always print. The zero value prints every progress event
	// (useful in tests); NewProgressProbe sets 1s.
	MinInterval time.Duration

	clocks stageClocks
}

// NewProgressProbe returns a progress printer with a 1s per-stage throttle.
func NewProgressProbe(w io.Writer) *ProgressProbe {
	return &ProgressProbe{w: w, MinInterval: time.Second}
}

// Observe prints the run lifecycle events: progress as a throttled line
// with rate and ETA, an end as the completion line. Other kinds are
// ignored.
func (p *ProgressProbe) Observe(e Event) {
	switch e.Kind {
	case KindRunStart:
		p.clocks.open(e.Stage, e.Total)
	case KindProgress:
		elapsed, total, ok := p.clocks.tick(e.Stage, p.MinInterval)
		if !ok {
			return
		}
		rate := refsPerSec(e.Refs, elapsed)
		if total > 0 && rate > 0 {
			eta := time.Duration(float64(total-e.Refs) / rate * float64(time.Second))
			fmt.Fprintf(p.w, "%s: %s/%s refs (%.0f%%), %s refs/s, ETA %s\n",
				e.Stage, fmtCount(e.Refs), fmtCount(total),
				100*float64(e.Refs)/float64(total), fmtRate(rate), eta.Round(100*time.Millisecond))
			return
		}
		fmt.Fprintf(p.w, "%s: %s refs, %s refs/s\n", e.Stage, fmtCount(e.Refs), fmtRate(rate))
	case KindRunEnd:
		p.clocks.close(e.Stage)
		fmt.Fprintf(p.w, "%s: %s refs in %s (%s refs/s)\n", e.Stage, fmtCount(e.Refs),
			e.Elapsed.Round(time.Millisecond), fmtRate(refsPerSec(e.Refs, e.Elapsed)))
	}
}

// Enabled reports true for the run lifecycle kinds only, so installing a
// ProgressProbe never switches on 3C attribution.
func (p *ProgressProbe) Enabled(k Kind) bool {
	return k == KindRunStart || k == KindProgress || k == KindRunEnd
}

// stageClocks tracks each open stage's start time, expected length and
// last progress report, for the sinks that throttle progress and report
// rates. It is safe for concurrent use.
type stageClocks struct {
	mu     sync.Mutex
	stages map[string]*stageClock
}

type stageClock struct {
	start, last time.Time
	total       int64
}

// open starts the stage's clock.
func (c *stageClocks) open(stage string, total int64) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stages == nil {
		c.stages = make(map[string]*stageClock)
	}
	c.stages[stage] = &stageClock{start: now, last: now, total: total}
}

// tick reports whether the stage's next progress report is due — the stage
// is open and at least min has passed since its start or last report —
// and if so records it and returns the stage's elapsed time and expected
// length.
func (c *stageClocks) tick(stage string, min time.Duration) (elapsed time.Duration, total int64, ok bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.stages[stage]
	if sc == nil || now.Sub(sc.last) < min {
		return 0, 0, false
	}
	sc.last = now
	return now.Sub(sc.start), sc.total, true
}

// close forgets the stage.
func (c *stageClocks) close(stage string) {
	c.mu.Lock()
	delete(c.stages, stage)
	c.mu.Unlock()
}

// refsPerSec guards the zero-duration edge (sub-tick runs).
func refsPerSec(refs int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(refs) / d.Seconds()
}

// fmtCount renders a reference count compactly (12.3M style).
func fmtCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// fmtRate renders a refs/second rate compactly.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
