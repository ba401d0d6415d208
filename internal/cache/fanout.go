package cache

import (
	"fmt"
	"sort"

	"cacheeval/internal/trace"
)

// FanoutSystem is the one-pass multi-size engine for the prefetch-always
// half of the §3.3-§3.5 sweep grid: it simulates a fully-associative LRU
// copy-back prefetch-always cache system (split or unified, with task-switch
// purging) at every size in Sizes from a single pass over the reference
// stream.
//
// Prefetch breaks the LRU stack-inclusion property MultiSystem exploits — a
// prefetched line enters the recency order without being referenced, and
// whether the probe of line i+1 finds it resident depends on capacity — so
// per-size cache state cannot be collapsed into one annotated stack. What
// *can* be shared is every piece of per-reference work that does not depend
// on capacity: the purge-interval schedule (driven by reference counts,
// which are size-independent), the decomposition of line-straddling
// references into fetch units, the per-kind reference counting, and the
// access/write-access tallies (every size sees the same access sequence).
// The engine computes those once per reference and fans the resulting unit
// accesses out to one specialized cache per sweep size, replacing N full
// stream passes per organization with one. See DESIGN.md §6.
//
// Results are bit-identical to running System once per size with
// Config{Size: s, LineSize: LineSize, Fetch: PrefetchAlways} (fully
// associative, LRU, copy-back); the equivalence is enforced by tests at the
// engine and the sweep level.
//
// FanoutSystem is not safe for concurrent use.
type FanoutSystem struct {
	cfg       FanoutConfig
	lineShift uint
	unit      uint64 // line size in bytes (the fetch granularity)

	// sortedPos maps each index of cfg.Sizes to its index in the sorted
	// deduplicated line-count order the engine simulates.
	sortedPos []int
	k         int // number of distinct simulated sizes

	unified []fanoutCache // per distinct size; nil when split
	icache  []fanoutCache // per distinct size; nil when unified
	dcache  []fanoutCache

	// Size-independent tallies, computed once per reference instead of once
	// per (reference, size): per-kind reference counts, per-organization
	// line access/write-access counts (identical for every size in an
	// organization, folded into each size's Stats by Results), and the
	// processor-requested byte count.
	refs     [3]uint64
	misses   [][3]uint64 // per-distinct-size, per-kind reference misses
	uAcc     [2]uint64   // unified {accesses, write accesses}
	iAcc     uint64      // icache accesses (never written)
	dAcc     [2]uint64   // dcache {accesses, write accesses}
	refBytes uint64

	sincePurge int
	purges     uint64
}

// FanoutConfig configures a FanoutSystem. The simulated policy is fixed:
// fully associative, LRU, copy-back, prefetch-always — the prefetch
// configuration of the paper's §3.5 figures and Table 4.
type FanoutConfig struct {
	// Sizes are the cache capacities in bytes to evaluate; each must be a
	// valid Config size for LineSize. Order is preserved in Results;
	// duplicates are allowed.
	Sizes []int
	// LineSize is the line size in bytes shared by every evaluated size.
	LineSize int
	// Split selects separate instruction and data caches (each of the full
	// per-size capacity, as in the paper's split organization); false
	// selects one unified cache.
	Split bool
	// PurgeInterval is the number of references between full purges, as in
	// SystemConfig. Zero disables purging.
	PurgeInterval int
}

// NewFanoutSystem validates cfg and builds the engine.
func NewFanoutSystem(cfg FanoutConfig) (*FanoutSystem, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("cache: no sizes to sweep")
	}
	if cfg.PurgeInterval < 0 {
		return nil, fmt.Errorf("cache: negative purge interval %d", cfg.PurgeInterval)
	}
	for _, size := range cfg.Sizes {
		if err := (Config{Size: size, LineSize: cfg.LineSize}).Validate(); err != nil {
			return nil, err
		}
	}
	// Collapse to sorted distinct line counts; sortedPos maps back.
	linesOf := make([]int, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		linesOf[i] = size / cfg.LineSize
	}
	sorted := append([]int(nil), linesOf...)
	sort.Ints(sorted)
	distinct := sorted[:0]
	for i, l := range sorted {
		if i == 0 || l != sorted[i-1] {
			distinct = append(distinct, l)
		}
	}
	distinct = append([]int(nil), distinct...)
	f := &FanoutSystem{
		cfg:       cfg,
		lineShift: log2(cfg.LineSize),
		unit:      uint64(cfg.LineSize),
		sortedPos: make([]int, len(cfg.Sizes)),
		k:         len(distinct),
		misses:    make([][3]uint64, len(distinct)),
	}
	for i, l := range linesOf {
		f.sortedPos[i] = sort.SearchInts(distinct, l)
	}
	if cfg.Split {
		f.icache = newFanoutCaches(distinct, f.unit)
		f.dcache = newFanoutCaches(distinct, f.unit)
	} else {
		f.unified = newFanoutCaches(distinct, f.unit)
	}
	return f, nil
}

// Ref processes one trace reference, mirroring System.Ref: purge
// scheduling, line decomposition of straddling references, and
// reference-level accounting — each computed once, then fanned out to every
// size's caches.
func (f *FanoutSystem) Ref(r trace.Ref) {
	if f.cfg.PurgeInterval > 0 {
		if f.sincePurge >= f.cfg.PurgeInterval {
			f.Purge()
			f.sincePurge = 0
		}
		f.sincePurge++
	}
	var caches []fanoutCache
	write := r.Kind == trace.Write
	size := int(r.Size)
	if size < 1 {
		size = 1
	}
	unit := f.unit
	first := r.Addr &^ (unit - 1)
	last := (r.Addr + uint64(size) - 1) &^ (unit - 1)
	f.refs[r.Kind]++
	f.refBytes += uint64(size)
	firstLine := first >> f.lineShift
	span := (last-first)>>f.lineShift + 1
	if !f.cfg.Split {
		caches = f.unified
		f.uAcc[0] += span
		if write {
			f.uAcc[1] += span
		}
	} else if r.Kind == trace.IFetch {
		caches = f.icache
		f.iAcc += span
	} else {
		caches = f.dcache
		f.dAcc[0] += span
		if write {
			f.dAcc[1] += span
		}
	}
	// A reference touches every line it spans; it counts once at the
	// reference level and is, per size, a miss if any touched line missed
	// there. Prefetch-always probes line i+1 after every access to line i.
	if span == 1 {
		next := firstLine + 1
		for i := range caches {
			c := &caches[i]
			// Inline fast path: the kind's previous access hit this same
			// line and its previous probe covered line+1 — the common shape
			// of sequential code — so no index or list work is needed.
			if c.lastLine[r.Kind] == firstLine {
				if m := c.lastNode[r.Kind]; m >= 0 {
					if n := &c.nodes[m]; n.flags&fanPresent != 0 && n.tag == firstLine {
						if n.flags&fanPrefetched != 0 {
							c.stats.PrefetchUsed++
							n.flags &^= fanPrefetched
						}
						c.moveToFront(m)
						if write {
							n.flags |= fanDirty
						}
						if p := c.probeNode[r.Kind]; p >= 0 && c.lastProbe[r.Kind] == next {
							if pn := &c.nodes[p]; pn.flags&fanPresent != 0 && pn.tag == next {
								continue
							}
						}
						c.probe(next, r.Kind)
						continue
					}
				}
			}
			hit := c.access(firstLine, r.Kind, write)
			c.probe(next, r.Kind)
			if !hit {
				f.misses[i][r.Kind]++
			}
		}
		return
	}
	lastLine := last >> f.lineShift
	for i := range caches {
		c := &caches[i]
		miss := false
		for line := firstLine; ; line++ {
			if !c.access(line, r.Kind, write) {
				miss = true
			}
			c.probe(line+1, r.Kind)
			if line >= lastLine {
				break
			}
		}
		if miss {
			f.misses[i][r.Kind]++
		}
	}
}

// Purge empties every simulated cache at every size, accounting purge
// pushes exactly as System.Purge does per size.
func (f *FanoutSystem) Purge() {
	f.purges++
	if f.cfg.Split {
		purgeFanoutCaches(f.icache)
		purgeFanoutCaches(f.dcache)
		return
	}
	purgeFanoutCaches(f.unified)
}

// Release hands every size's frame and tag arrays back for reuse by later
// constructors and leaves the engine unusable: a later reference panics
// instead of touching arrays another simulator may own. Call it only when
// nothing else holds the engine, after its Results; releasing twice is a
// no-op.
func (f *FanoutSystem) Release() {
	releaseFanoutCaches(f.unified)
	releaseFanoutCaches(f.icache)
	releaseFanoutCaches(f.dcache)
}

// Purges returns how many task-switch purges have occurred.
func (f *FanoutSystem) Purges() uint64 { return f.purges }

// RefBytes returns the total bytes the processor requested, as System.RefBytes.
func (f *FanoutSystem) RefBytes() uint64 { return f.refBytes }

// Results returns the per-size outcomes, indexed as cfg.Sizes. Unlike
// MultiSystem (whose lazy accounting must settle), Results is a snapshot:
// it may be called at any time and the engine can keep processing
// references afterwards.
func (f *FanoutSystem) Results() []SizeResult {
	out := make([]SizeResult, len(f.cfg.Sizes))
	for oi, si := range f.sortedPos {
		r := SizeResult{Size: f.cfg.Sizes[oi]}
		r.Ref.Refs = f.refs
		r.Ref.Misses = f.misses[si]
		if f.cfg.Split {
			r.I = f.icache[si].stats
			r.I.Accesses = f.iAcc
			r.D = f.dcache[si].stats
			r.D.Accesses, r.D.WriteAccesses = f.dAcc[0], f.dAcc[1]
		} else {
			r.U = f.unified[si].stats
			r.U.Accesses, r.U.WriteAccesses = f.uAcc[0], f.uAcc[1]
		}
		out[oi] = r
	}
	return out
}

// fanoutCache is one size's cache array: a specialization of Cache to the
// engine's fixed policy (fully associative, LRU, copy-back, unsectored,
// prefetch-always). Like set it keeps an intrusive recency list over a
// frame arena and finds tags by scanning a small arena or through set's
// tagTable, but its recency list has no policy dispatch and packs the
// per-frame state into 24 bytes (tag, two links, a flag byte; no sector
// masks), so the list operations that dominate the fan-out hot path touch
// half the memory the generic set would. Statistics are accounted exactly
// as Cache does so the equivalence is bit-for-bit.
type fanoutCache struct {
	nodes []fanNode
	head  int32
	tail  int32
	used  int32
	table tagTable

	lineBytes uint64

	// Per-kind memos short-circuit the tag-index lookup on the sequential
	// patterns that dominate traces: several consecutive fetches land in the
	// same line, each access to line i probes the same line i+1, and an
	// access to line i+1 usually follows a probe that just located it — but
	// instruction and data references interleave, so one shared memo would
	// thrash. lastLine/lastNode remember the frame that served the kind's
	// previous access; lastProbe/probeNode remember the frame its previous
	// probe found or fetched. Both self-validate against the frame's tag and
	// presence bit (eviction clears the bit, reuse rewrites the tag), so
	// evict and purge need no memo bookkeeping.
	lastLine  [3]uint64
	lastNode  [3]int32
	lastProbe [3]uint64
	probeNode [3]int32

	stats Stats
}

// fanNode is one frame: a compact node for the fan-out engine's fixed
// unsectored policy (single dirty/prefetched/present bits instead of the
// generic set's sector bitmaps).
type fanNode struct {
	tag        uint64
	prev, next int32
	flags      uint8
}

const (
	fanPresent uint8 = 1 << iota
	fanDirty
	fanPrefetched
)

// newFanoutCaches builds one cache per distinct line count, drawing its
// arrays from the recycler and resetting them as make would leave them.
func newFanoutCaches(lines []int, lineBytes uint64) []fanoutCache {
	out := make([]fanoutCache, len(lines))
	for i, l := range lines {
		out[i] = fanoutCache{
			nodes:     fanFramePool.Get(l),
			head:      -1,
			tail:      -1,
			table:     newTagTable(slotPool.Get(tableLen(l))),
			lineBytes: lineBytes,
			lastNode:  [3]int32{-1, -1, -1},
			probeNode: [3]int32{-1, -1, -1},
		}
		clear(out[i].nodes)
	}
	return out
}

// releaseFanoutCaches hands each cache's arrays back to the recycler and
// drops the cache's references to them.
func releaseFanoutCaches(cs []fanoutCache) {
	for i := range cs {
		fanFramePool.Put(cs[i].nodes)
		slotPool.Put(cs[i].table.slots)
		cs[i].nodes, cs[i].table = nil, tagTable{}
	}
}

// lookup finds the frame holding tag, if resident.
func (c *fanoutCache) lookup(tag uint64) (int32, bool) {
	if c.table.slots == nil {
		for i := int32(0); i < c.used; i++ {
			if n := &c.nodes[i]; n.flags&fanPresent != 0 && n.tag == tag {
				return i, true
			}
		}
		return -1, false
	}
	return c.table.lookup(tag)
}

// pushFront makes frame ni the recency-list head.
func (c *fanoutCache) pushFront(ni int32) {
	n := &c.nodes[ni]
	n.prev = -1
	n.next = c.head
	if c.head != -1 {
		c.nodes[c.head].prev = ni
	}
	c.head = ni
	if c.tail == -1 {
		c.tail = ni
	}
}

// unlink removes frame ni from the recency list.
func (c *fanoutCache) unlink(ni int32) {
	n := &c.nodes[ni]
	if n.prev != -1 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != -1 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

// moveToFront marks frame ni most recently used.
func (c *fanoutCache) moveToFront(ni int32) {
	if c.head == ni {
		return
	}
	c.unlink(ni)
	c.pushFront(ni)
}

// access performs one demand reference to line, returning true on a hit.
// Accesses/WriteAccesses are size-independent and tallied by the engine.
func (c *fanoutCache) access(line uint64, kind trace.Kind, write bool) bool {
	ni, ok := int32(-1), false
	// Memo fast path: the kind's previous access often lands in the same
	// line. The remembered frame self-validates (still present, still
	// holding this tag), so eviction and purge need no bookkeeping here.
	if m := c.lastNode[kind]; m >= 0 && c.lastLine[kind] == line {
		if n := &c.nodes[m]; n.flags&fanPresent != 0 && n.tag == line {
			ni, ok = m, true
		}
	}
	if !ok {
		// Sequential advance: the previous probe of this kind usually just
		// located (or fetched) exactly this line.
		if m := c.probeNode[kind]; m >= 0 && c.lastProbe[kind] == line {
			if n := &c.nodes[m]; n.flags&fanPresent != 0 && n.tag == line {
				ni, ok = m, true
			}
		}
	}
	if !ok {
		ni, ok = c.lookup(line)
	}
	if ok {
		n := &c.nodes[ni]
		if n.flags&fanPrefetched != 0 {
			c.stats.PrefetchUsed++
			n.flags &^= fanPrefetched
		}
		c.moveToFront(ni)
		if write {
			n.flags |= fanDirty
		}
		c.lastLine[kind], c.lastNode[kind] = line, ni
		return true
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	// Copy-back fetch-on-write: a write miss loads the line and dirties it.
	ni, n := c.insert(line, 0)
	c.stats.DemandFetches++
	c.stats.BytesFromMemory += c.lineBytes
	if write {
		n.flags |= fanDirty
	}
	c.lastLine[kind], c.lastNode[kind] = line, ni
	return false
}

// probe is the prefetch-always check of the next sequential line: fetch it
// if absent. The fetch is traffic, never a miss, and does not touch the
// recency order of an already-resident line.
func (c *fanoutCache) probe(line uint64, kind trace.Kind) {
	if m := c.probeNode[kind]; m >= 0 && c.lastProbe[kind] == line {
		if n := &c.nodes[m]; n.flags&fanPresent != 0 && n.tag == line {
			return
		}
	}
	if ni, ok := c.lookup(line); ok {
		c.lastProbe[kind], c.probeNode[kind] = line, ni
		return
	}
	ni, _ := c.insert(line, fanPrefetched)
	c.stats.PrefetchFetches++
	c.stats.BytesFromMemory += c.lineBytes
	c.lastProbe[kind], c.probeNode[kind] = line, ni
}

// insert places line at the head of the recency list with the given extra
// flags, evicting the LRU line if the cache is full.
func (c *fanoutCache) insert(line uint64, flags uint8) (int32, *fanNode) {
	var ni int32
	if c.used < int32(len(c.nodes)) {
		ni = c.used
		c.used++
	} else {
		ni = c.tail
		c.evict(ni)
	}
	n := &c.nodes[ni]
	n.tag = line
	n.flags = fanPresent | flags
	c.table.insert(line, ni)
	c.pushFront(ni)
	return ni, n
}

// evict pushes frame ni, writing back a dirty line.
func (c *fanoutCache) evict(ni int32) {
	n := &c.nodes[ni]
	c.stats.Pushes++
	if n.flags&fanDirty != 0 {
		c.stats.DirtyPushes++
		c.stats.WriteTransactions++
		c.stats.BytesToMemory += c.lineBytes
	}
	c.table.delete(n.tag)
	c.unlink(ni)
	n.flags = 0
}

// purge pushes every resident line. Accounting matches Cache.Purge; the
// tag index is cleared wholesale rather than one backward-shift deletion
// per line.
func (c *fanoutCache) purge() {
	for ni := c.head; ni != -1; ni = c.nodes[ni].next {
		n := &c.nodes[ni]
		c.stats.Pushes++
		c.stats.PurgePushes++
		if n.flags&fanDirty != 0 {
			c.stats.DirtyPushes++
			c.stats.WriteTransactions++
			c.stats.BytesToMemory += c.lineBytes
		}
		n.flags = 0
	}
	c.head, c.tail, c.used = -1, -1, 0
	c.table.reset()
}

// purgeFanoutCaches purges one organization's array at every size.
func purgeFanoutCaches(caches []fanoutCache) {
	for i := range caches {
		caches[i].purge()
	}
}
