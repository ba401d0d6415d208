package cache

import (
	"fmt"
	"io"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// Two-level hierarchy simulation.
//
// An L2 never sees the processor's reference stream: it sees the L1's
// memory-side traffic — fetches and write-backs — which has radically
// different locality than the raw trace (every reference the L1 absorbed
// is gone). That filtering is why Mattson stack inclusion, which holds
// per level for demand-fetch LRU, does not hold across levels: changing
// the L1 size changes the *stream* the L2 receives, so L2 contents at one
// L1 size are not a subset of contents at another, and no one-pass
// multi-size engine is sound for hierarchies. The registry routes every
// hierarchy spec to a per-size engine built on this type.

// HierarchyConfig describes a two-level organization: a complete L1
// system (split or unified, any policies, optionally victim-buffered)
// backed by one unified L2 cache. The L1's PurgeInterval drives
// task-switch purges across both levels.
type HierarchyConfig struct {
	L1 SystemConfig
	L2 Config
}

// l1Bytes returns the L1's total capacity in bytes.
func (hc HierarchyConfig) l1Bytes() int {
	if hc.L1.Split {
		return hc.L1.I.Size + hc.L1.D.Size
	}
	return hc.L1.Unified.Size
}

// Validate checks both levels and their relationship: the L2 must be at
// least as large as the whole L1 (an inverted hierarchy is a
// configuration error, not a simulation).
func (hc HierarchyConfig) Validate() error {
	if err := hc.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := hc.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if l1 := hc.l1Bytes(); hc.L2.Size < l1 {
		return fmt.Errorf("cache: L2 size %d smaller than total L1 capacity %d", hc.L2.Size, l1)
	}
	return nil
}

// HierStats counts the events an L2 receives from its L1 — the filtered
// stream. One event is one L1 memory transaction: a fetch of one L1
// fetch unit, or a write of one dirty sub-block / store. An event is a
// miss if any L2 fetch unit it touches missed.
type HierStats struct {
	Fetches     uint64 // L1 fetch events (demand + prefetch)
	FetchMisses uint64
	Writes      uint64 // L1 write-back and store-through events
	WriteMisses uint64
}

// Events returns all L1 memory transactions the L2 served.
func (h HierStats) Events() uint64 { return h.Fetches + h.Writes }

// Misses returns the events that missed in the L2.
func (h HierStats) Misses() uint64 { return h.FetchMisses + h.WriteMisses }

// LocalMissRatio returns the L2 miss ratio over the stream it actually
// saw, or 0 for an empty run.
func (h HierStats) LocalMissRatio() float64 {
	if ev := h.Events(); ev > 0 {
		return float64(h.Misses()) / float64(ev)
	}
	return 0
}

// FetchMissRatio returns the miss ratio of the fetch-event sub-stream.
func (h HierStats) FetchMissRatio() float64 {
	if h.Fetches == 0 {
		return 0
	}
	return float64(h.FetchMisses) / float64(h.Fetches)
}

// HierResult extends a per-size sweep result with the L2 side of a
// two-level simulation: event-level outcomes plus the L2 cache's
// line-level statistics. The zero value means "single level"; every
// field is comparable, keeping SizeResult usable with == (the
// equivalence and conformance tests rely on that).
type HierResult struct {
	Ev HierStats
	U  Stats // the L2 cache's own line-level statistics
}

// Hierarchy chains an L1 System and an L2 Cache: the L1's memory-side
// traffic (MemSink events) becomes the L2's access stream, and purges
// propagate L1-first so dirty L1 lines write back through the L2 before
// the L2 itself flushes to memory. Not safe for concurrent use.
type Hierarchy struct {
	engineProbe
	cfg        HierarchyConfig
	l1         *System
	l2         *Cache
	ev         HierStats
	sincePurge int
	purges     uint64
}

// NewHierarchy builds both levels and installs the L2 as the L1's memory
// sink.
func NewHierarchy(hc HierarchyConfig) (*Hierarchy, error) {
	if err := hc.Validate(); err != nil {
		return nil, err
	}
	l2, err := New(hc.L2)
	if err != nil {
		return nil, err
	}
	return newHierarchy(hc, l2)
}

// NewHierarchyOver builds a hierarchy in front of an existing L2 cache,
// which must have been built from hc.L2. The L2 is Reset first, so the
// hierarchy simulates bit-identically to NewHierarchy(hc); a sweep over
// many L1 sizes uses this to allocate its L2 once per pass instead of once
// per size. Any hierarchy previously built over l2 must no longer be used.
func NewHierarchyOver(hc HierarchyConfig, l2 *Cache) (*Hierarchy, error) {
	if err := hc.Validate(); err != nil {
		return nil, err
	}
	if l2.Config() != hc.L2 {
		return nil, fmt.Errorf("cache: L2 built for %v, hierarchy needs %v", l2.Config(), hc.L2)
	}
	l2.Reset()
	return newHierarchy(hc, l2)
}

// newHierarchy builds the L1 of a validated configuration and installs l2
// as its memory sink.
func newHierarchy(hc HierarchyConfig, l2 *Cache) (*Hierarchy, error) {
	l1cfg := hc.L1
	// The hierarchy drives purge scheduling itself so a task switch
	// flushes both levels in order; the inner System must not
	// self-schedule.
	l1cfg.PurgeInterval = 0
	l1, err := NewSystem(l1cfg)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: hc, l1: l1, l2: l2}
	for _, c := range []*Cache{l1.unified, l1.icache, l1.dcache} {
		if c != nil {
			c.SetMemSink(h)
		}
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 returns the first-level system.
func (h *Hierarchy) L1() *System { return h.l1 }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// MemRead receives one L1 fetch event and serves it as an L2 read.
func (h *Hierarchy) MemRead(addr uint64, size int) {
	h.ev.Fetches++
	if h.l2access(addr, size, false) {
		h.ev.FetchMisses++
	}
}

// MemWrite receives one L1 write-back (or store-through) event and
// serves it as an L2 write.
func (h *Hierarchy) MemWrite(addr uint64, size int) {
	h.ev.Writes++
	if h.l2access(addr, size, true) {
		h.ev.WriteMisses++
	}
}

// l2access drives one L1 memory event through the L2, decomposed over
// the L2's fetch units exactly as System.Ref decomposes processor
// references; it reports whether any touched unit missed.
func (h *Hierarchy) l2access(addr uint64, size int, write bool) bool {
	c := h.l2
	if size < 1 {
		size = 1
	}
	unit := c.subSize
	first := addr &^ (unit - 1)
	last := (addr + uint64(size) - 1) &^ (unit - 1)
	if first == last {
		return !c.Access(first, write, size)
	}
	units := int((last-first)>>c.subShift) + 1
	storeBytes := size / units
	if storeBytes < 1 {
		storeBytes = 1
	}
	miss := false
	for a := first; ; a += unit {
		if !c.Access(a, write, storeBytes) {
			miss = true
		}
		if a >= last {
			break
		}
	}
	return miss
}

// Ref processes one trace reference: hierarchy-level purge scheduling,
// then the L1 access (whose memory events recurse into the L2).
func (h *Hierarchy) Ref(r trace.Ref) {
	if h.cfg.L1.PurgeInterval > 0 {
		if h.sincePurge >= h.cfg.L1.PurgeInterval {
			h.Purge()
			h.sincePurge = 0
		}
		h.sincePurge++
	}
	h.l1.Ref(r)
}

// Purge models a task switch across the whole hierarchy: the L1 purges
// first — its dirty lines (and victim buffers) write back *through* the
// L2, in deterministic set order — then the L2 pushes its own dirty
// lines to memory.
func (h *Hierarchy) Purge() {
	h.purges++
	h.l1.Purge()
	h.l2.Purge()
}

// Purges returns how many task-switch purges have occurred.
func (h *Hierarchy) Purges() uint64 { return h.purges }

// RefStats returns the L1's reference-level statistics (the processor's
// view of the hierarchy).
func (h *Hierarchy) RefStats() RefStats { return h.l1.RefStats() }

// RefBytes returns the total bytes the processor requested.
func (h *Hierarchy) RefBytes() uint64 { return h.l1.RefBytes() }

// Stats returns the aggregate L1 line-level statistics.
func (h *Hierarchy) Stats() Stats { return h.l1.Stats() }

// SizeResult reports the hierarchy's statistics as the result of one sweep
// size: the L1's, plus the L2 block.
func (h *Hierarchy) SizeResult(size int) SizeResult {
	r := h.l1.SizeResult(size)
	r.H = HierResult{Ev: h.ev, U: h.l2.Stats()}
	return r
}

// L2Stats returns the L2 cache's line-level statistics.
func (h *Hierarchy) L2Stats() Stats { return h.l2.Stats() }

// HierStats returns the event-level outcomes of the L2.
func (h *Hierarchy) HierStats() HierStats { return h.ev }

// L2LocalMissRatio returns the L2's miss ratio over the L1-filtered
// stream it actually served.
func (h *Hierarchy) L2LocalMissRatio() float64 { return h.ev.LocalMissRatio() }

// GlobalMissRatio returns the fraction of L1 demand line accesses whose
// data had to come all the way from memory: L2 fetch-event misses over
// L1 accesses. Under demand fetch with write-allocate and unsectored L1
// lines it equals L1MissRatio × L2FetchMissRatio exactly (every L1 miss
// is then exactly one L2 fetch event — the product identity the
// conformance suite pins).
func (h *Hierarchy) GlobalMissRatio() float64 {
	acc := h.l1.Stats().Accesses
	if acc == 0 {
		return 0
	}
	return float64(h.ev.FetchMisses) / float64(acc)
}

// report emits the batched hierarchy counters to a HierarchyProbe.
func (h *Hierarchy) report() {
	hp, ok := h.probe.(obs.HierarchyProbe)
	if !ok {
		return
	}
	hp.HierarchyRun(h.stage, h.ev.Fetches, h.ev.FetchMisses, h.ev.Writes, h.ev.WriteMisses,
		h.l1.Stats().VictimHits)
}

// Run drives the hierarchy from rd until io.EOF or max references (when
// max > 0) and returns the number of references processed.
func (h *Hierarchy) Run(rd trace.Reader, max int) (int, error) {
	t0 := h.runStart()
	n := 0
	for max <= 0 || n < max {
		ref, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			h.runEnd(n, t0)
			h.report()
			return n, err
		}
		h.Ref(ref)
		n++
		if h.probe != nil && n%obs.ProgressInterval == 0 {
			h.probe.RunProgress(h.stage, int64(n))
		}
	}
	h.runEnd(n, t0)
	h.report()
	return n, nil
}
