package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Cache simulates a single cache array. It operates on byte addresses; the
// System wrapper translates trace references into accesses and handles
// split/unified routing, purge scheduling and store-width accounting.
//
// A cache may be sectored (Config.SubBlock < LineSize): the tag covers a
// whole line (sector) but fetches move sub-blocks, the organization of the
// Zilog Z80000's on-chip cache discussed in §1.2 ("a 16 byte sector (larger
// block) and then fetches either 2 bytes, 4 bytes or 16 bytes"). A
// reference to a resident sector whose sub-block is absent counts as a miss
// and fetches just that sub-block.
//
// Cache is not safe for concurrent use; run one simulation per goroutine.
type Cache struct {
	cfg       Config
	lineShift uint
	subShift  uint
	subSize   uint64 // fetch granularity in bytes (1 << subShift)
	subMask   uint64 // sub-block index mask (subs per line - 1)
	setMask   uint64
	sets      []set
	frames    []node    // one backing array for every set's frames
	slots     []tagSlot // one backing array for every set's tag table; nil when scanned
	stats     Stats
	rng       *rand.Rand // only for Random replacement
	resident  int        // total valid main-array lines, for invariant checks
	protCap   int32      // SegmentedLRU protected-segment capacity per set
	causes    *causeTracker

	// vbuf is the fully associative victim buffer (Config.VictimLines > 0):
	// lists[0] holds entries most-recently-filled first, free recycles
	// frames vacated by victim hits. Nil when disabled.
	vbuf *set
	// sink observes memory-side traffic (the next hierarchy level); nil
	// means traffic is only counted.
	sink MemSink

	// write-combining buffer state (write-through only): the unit of the
	// immediately preceding store, cleared by any intervening access.
	combineUnit uint64
	combineLive bool
}

// node is one line (sector) frame within a set, linked into one of the
// set's replacement lists. Index -1 terminates a list. valid and dirty are
// per-sub-block bitmasks; for unsectored caches they use only bit 0.
type node struct {
	tag        uint64
	prev, next int32
	present    bool
	valid      uint64
	dirty      uint64
	prefetched bool  // set when loaded by prefetch, cleared on first demand hit
	seg        uint8 // which of the set's lists holds the frame
	freq       int32 // LFU use count; unused by other policies
}

// chain is one doubly linked list of frames within a set, with its length.
type chain struct {
	head, tail int32
	n          int32
}

// set is one associativity set: up to two doubly linked lists of frames plus
// a tag index. Single-list policies (LRU, FIFO, Random, LFU) keep every
// frame on lists[0], ordered most-recent (or newest-inserted) first.
// SegmentedLRU uses lists[0] as the probationary segment and lists[1] as the
// protected segment; ARC uses them as T1 (recency) and T2 (frequency), with
// ghosts and p carrying the B1/B2 tag history and the adaptive target.
//
// The index keeps the per-reference path allocation-free. Small sets
// (assoc <= linearScanAssoc) leave the table's slots nil and scan frames
// directly — at typical associativities a handful of comparisons beats any
// hashing. Larger sets find tags through a tagTable.
type set struct {
	nodes []node
	lists [2]chain
	used  int32
	table tagTable

	// ARC state: B1/B2 ghost tag lists (most-recently-evicted first), the
	// adaptive target size of T1, and a free-frame stack balancing evictions
	// against insertions. Nil/zero for every other policy.
	ghosts [2][]uint64
	p      int32
	free   []int32
}

// newSet returns an empty set over the given frame array and tag-table
// slots (nil for a scanned set), resetting both.
func newSet(nodes []node, slots []tagSlot) set {
	clear(nodes)
	return set{
		nodes: nodes,
		lists: [2]chain{{head: -1, tail: -1}, {head: -1, tail: -1}},
		table: newTagTable(slots),
	}
}

// lookup finds the frame holding tag, if resident.
func (s *set) lookup(tag uint64) (int32, bool) {
	if s.table.slots == nil {
		for i := int32(0); i < s.used; i++ {
			if n := &s.nodes[i]; n.present && n.tag == tag {
				return i, true
			}
		}
		return -1, false
	}
	return s.table.lookup(tag)
}

// New returns a Cache for cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg), nil
}

// build returns a Cache for a valid cfg.
func build(cfg Config) *Cache {
	sub := cfg.EffectiveSubBlock()
	c := &Cache{
		cfg:       cfg,
		lineShift: log2(cfg.LineSize),
		subShift:  log2(sub),
		subSize:   uint64(sub),
		subMask:   uint64(cfg.LineSize/sub) - 1,
		setMask:   uint64(cfg.Sets() - 1),
	}
	assoc := cfg.EffectiveAssoc()
	tlen := tableLen(assoc)
	c.sets = make([]set, cfg.Sets())
	c.frames = framePool.Get(len(c.sets) * assoc)
	c.slots = slotPool.Get(len(c.sets) * tlen)
	for i := range c.sets {
		f, t := i*assoc, i*tlen // a scanned cache's nil slots slice to a nil table
		c.sets[i] = newSet(c.frames[f:f+assoc:f+assoc], c.slots[t:t+tlen:t+tlen])
	}
	if cfg.Repl == Random {
		c.rng = rand.New(rand.NewPCG(cfg.Seed, 0))
	}
	if cfg.Repl == SegmentedLRU {
		c.protCap = int32(assoc / 2)
		if c.protCap < 1 {
			c.protCap = 1
		}
	}
	if n := cfg.VictimLines; n > 0 {
		vb := newSet(framePool.Get(n), slotPool.Get(tableLen(n)))
		c.vbuf = &vb
	}
	return c
}

// Release hands the cache's frame and tag arrays back for reuse by later
// constructors and leaves the cache unusable: a later access panics
// instead of touching arrays another cache may own. Call it only when
// nothing else holds the cache; releasing twice is a no-op.
func (c *Cache) Release() {
	framePool.Put(c.frames)
	slotPool.Put(c.slots)
	if c.vbuf != nil {
		framePool.Put(c.vbuf.nodes)
		slotPool.Put(c.vbuf.table.slots)
	}
	c.sets, c.frames, c.slots, c.vbuf = nil, nil, nil, nil
}

// MemSink observes a cache's memory-side traffic: every line (sub-block)
// fetch and every byte written toward memory, at the moment the matching
// Stats field accrues. A two-level hierarchy installs the L2 as the L1's
// sink; a nil sink (the default) costs one predictable branch per event.
type MemSink interface {
	// MemRead reports a fetch of size bytes at the (fetch-unit-aligned)
	// address addr.
	MemRead(addr uint64, size int)
	// MemWrite reports size bytes written toward memory at addr: a dirty
	// sub-block on a push, or a write-through / no-allocate store.
	MemWrite(addr uint64, size int)
}

// SetMemSink installs ms as the observer of this cache's memory-side
// traffic. Call before simulation starts; nil uninstalls.
func (c *Cache) SetMemSink(ms MemSink) { c.sink = ms }

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without disturbing cache contents, e.g.
// to exclude a warm-up period.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Resident returns the number of valid lines currently held.
func (c *Cache) Resident() int { return c.resident }

// LineOf returns the line address of a byte address.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

// LineShift returns log2(LineSize).
func (c *Cache) LineShift() uint { return c.lineShift }

// subBytes returns the fetch granularity in bytes.
func (c *Cache) subBytes() uint64 { return c.subSize }

// subIndex returns the sub-block index of addr within its line.
func (c *Cache) subIndex(addr uint64) uint {
	return uint((addr >> c.subShift) & c.subMask)
}

// Contains reports whether the sub-block holding addr is resident, without
// touching replacement state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	line := c.LineOf(addr)
	s := &c.sets[line&c.setMask]
	ni, ok := s.lookup(line)
	if !ok {
		return false
	}
	return s.nodes[ni].valid&(1<<c.subIndex(addr)) != 0
}

// Access performs one demand reference to the sub-block containing addr.
// write marks the reference as a store; storeBytes is the store width used
// for write-through traffic accounting (ignored for reads and copy-back).
// It returns true on a hit. Prefetching policies probe the next sequential
// fetch unit and, if absent, fetch it — that fetch is traffic, never a miss:
// PrefetchAlways probes on every reference (§3.5), PrefetchOnMiss only after
// misses, TaggedPrefetch after misses and first uses of prefetched lines.
func (c *Cache) Access(addr uint64, write bool, storeBytes int) bool {
	hit, firstUse := c.demand(addr, write, storeBytes)
	trigger := false
	switch c.cfg.Fetch {
	case PrefetchAlways:
		trigger = true
	case PrefetchOnMiss:
		trigger = !hit
	case TaggedPrefetch:
		trigger = !hit || firstUse
	}
	if trigger {
		next := (addr | (c.subSize - 1)) + 1
		c.prefetch(next)
	}
	return hit
}

// demand performs the demand part of an access. firstUse reports that the
// access hit a line brought in by a prefetch and not referenced since (the
// tag bit of tagged prefetch).
func (c *Cache) demand(addr uint64, write bool, storeBytes int) (hit, firstUse bool) {
	line := c.LineOf(addr)
	sub := c.subIndex(addr)
	c.stats.Accesses++
	if write {
		c.stats.WriteAccesses++
	} else {
		// Any intervening non-store access flushes the combining buffer.
		c.combineLive = false
	}
	var cause missCause
	if c.causes != nil && c.causes.shadow != nil {
		cause = c.causes.access(addr)
	}
	s := &c.sets[line&c.setMask]
	ni, ok := s.lookup(line)
	if ok && s.nodes[ni].valid&(1<<sub) != 0 {
		n := &s.nodes[ni]
		if n.prefetched {
			c.stats.PrefetchUsed++
			n.prefetched = false
			firstUse = true
		}
		c.touch(s, ni)
		c.applyWrite(n, sub, addr, write, storeBytes)
		return true, firstUse
	}
	c.stats.Misses++
	if c.causes != nil {
		c.causes.miss(addr, cause)
	}
	if write {
		c.stats.WriteMisses++
		if c.cfg.Write == WriteThrough && c.cfg.NoWriteAllocate {
			// The store goes to memory but the line is not brought in.
			c.stats.BytesToMemory += uint64(storeBytes)
			c.accountWriteTransaction(addr)
			if c.sink != nil {
				c.sink.MemWrite(addr, storeBytes)
			}
			return false, false
		}
	}
	if ok {
		// Sector hit, sub-block miss: fetch just the sub-block.
		n := &s.nodes[ni]
		n.valid |= 1 << sub
		c.touch(s, ni)
		c.stats.DemandFetches++
		c.stats.BytesFromMemory += c.subSize
		if c.sink != nil {
			c.sink.MemRead(addr&^(c.subSize-1), int(c.subSize))
		}
		c.applyWrite(n, sub, addr, write, storeBytes)
		return false, false
	}
	// Line absent: a victim-buffer hit swaps the line back into the main
	// array with no memory traffic (the access still counted as a miss
	// above — the buffer shortens the miss penalty, it does not hide the
	// miss).
	if c.vbuf != nil {
		if vi, hit := c.vbuf.lookup(line); hit {
			valid, dirty := c.vbuf.nodes[vi].valid, c.vbuf.nodes[vi].dirty
			c.vbufRemove(vi)
			c.stats.VictimHits++
			ni = c.insert(s, line, valid, false)
			s.nodes[ni].dirty = dirty
			c.applyWrite(&s.nodes[ni], sub, addr, write, storeBytes)
			return false, false
		}
	}
	// Line absent everywhere: allocate a frame and fetch the referenced
	// sub-block (fetch-on-write under copy-back; write-allocate under
	// write-through).
	ni = c.insert(s, line, 1<<sub, false)
	c.stats.DemandFetches++
	c.stats.BytesFromMemory += c.subSize
	if c.sink != nil {
		c.sink.MemRead(addr&^(c.subSize-1), int(c.subSize))
	}
	c.applyWrite(&s.nodes[ni], sub, addr, write, storeBytes)
	return false, false
}

// applyWrite updates dirty state and write traffic for a store to a
// sub-block that is (now) resident: copy-back marks it dirty, write-through
// sends the store to memory immediately (through the combining buffer).
func (c *Cache) applyWrite(n *node, sub uint, addr uint64, write bool, storeBytes int) {
	if !write {
		return
	}
	switch c.cfg.Write {
	case CopyBack:
		n.dirty |= 1 << sub
	case WriteThrough:
		c.stats.BytesToMemory += uint64(storeBytes)
		c.accountWriteTransaction(addr)
		if c.sink != nil {
			c.sink.MemWrite(addr, storeBytes)
		}
	}
}

// accountWriteTransaction charges one memory write transaction for a
// write-through store, merging consecutive stores to the same aligned
// CombineWidth unit (§3.3's adjacent-write combining).
func (c *Cache) accountWriteTransaction(addr uint64) {
	if c.cfg.CombineWidth == 0 {
		c.stats.WriteTransactions++
		return
	}
	unit := addr &^ (uint64(c.cfg.CombineWidth) - 1)
	if c.combineLive && unit == c.combineUnit {
		c.stats.CombinedWrites++
		return
	}
	c.stats.WriteTransactions++
	c.combineUnit, c.combineLive = unit, true
}

// prefetch probes for the fetch unit containing addr and fetches it if
// absent. Prefetched lines are inserted at the head of the recency list
// like demand fetches.
func (c *Cache) prefetch(addr uint64) {
	line := c.LineOf(addr)
	sub := c.subIndex(addr)
	s := &c.sets[line&c.setMask]
	if ni, ok := s.lookup(line); ok {
		n := &s.nodes[ni]
		if n.valid&(1<<sub) != 0 {
			return
		}
		n.valid |= 1 << sub
	} else {
		// A line sitting in the victim buffer is already close at hand:
		// prefetching it would be pure churn, so the probe treats it as
		// present (no fetch, no swap — only a demand reference promotes).
		if c.vbuf != nil {
			if _, hit := c.vbuf.lookup(line); hit {
				return
			}
		}
		c.insert(s, line, 1<<sub, true)
	}
	c.stats.PrefetchFetches++
	c.stats.BytesFromMemory += c.subSize
	if c.sink != nil {
		c.sink.MemRead(addr&^(c.subSize-1), int(c.subSize))
	}
}

// touch updates replacement state for a demand reference to a resident
// line. FIFO and Random ignore use; LRU and LFU refresh recency (LFU also
// bumps the use count); SegmentedLRU promotes into the protected segment;
// ARC moves the line to the frequency list T2.
func (c *Cache) touch(s *set, ni int32) {
	switch c.cfg.Repl {
	case LRU:
		s.moveToFront(0, ni)
	case LFU:
		s.nodes[ni].freq++
		s.moveToFront(0, ni)
	case SegmentedLRU:
		c.slruTouch(s, ni)
	case ARC:
		s.moveToFront(1, ni)
	}
}

// slruTouch promotes a referenced line to the protected segment's MRU
// position. If the protected segment overflows its capacity, its LRU line
// demotes back to the probationary segment's MRU position, so a line must
// be re-referenced again to survive.
func (c *Cache) slruTouch(s *set, ni int32) {
	if s.nodes[ni].seg == 1 {
		s.moveToFront(1, ni)
		return
	}
	s.unlink(ni)
	s.pushFront(1, ni)
	if s.lists[1].n > c.protCap {
		demote := s.lists[1].tail
		s.unlink(demote)
		s.pushFront(0, demote)
	}
}

// insert places line into s with the given initial valid mask, evicting if
// the set is full, and returns the frame index used.
func (c *Cache) insert(s *set, line uint64, valid uint64, prefetched bool) int32 {
	if c.cfg.Repl == ARC {
		return c.arcInsert(s, line, valid, prefetched)
	}
	var ni int32
	if s.used < int32(len(s.nodes)) {
		ni = s.used
		s.used++
	} else {
		ni = c.victim(s)
		c.evictLine(s, ni)
	}
	c.resident++
	n := &s.nodes[ni]
	n.tag = line
	n.present = true
	n.valid = valid
	n.dirty = 0
	n.prefetched = prefetched
	// A demand fill counts as one use; a prefetch has not been used yet.
	n.freq = 1
	if prefetched {
		n.freq = 0
	}
	s.table.insert(line, ni)
	s.pushFront(0, ni)
	return ni
}

// victim selects the frame to evict from a full set (non-ARC policies; ARC
// eviction is bound up with its ghost lists in arcReplace).
func (c *Cache) victim(s *set) int32 {
	switch c.cfg.Repl {
	case LRU, FIFO:
		return s.lists[0].tail
	case Random:
		return int32(c.rng.IntN(len(s.nodes)))
	case LFU:
		// Least-frequently-used, ties broken toward least-recently-used:
		// walk tail-to-head so the strict < keeps the least recent among
		// frames sharing the minimum count.
		best := s.lists[0].tail
		for ni := s.nodes[best].prev; ni != -1; ni = s.nodes[ni].prev {
			if s.nodes[ni].freq < s.nodes[best].freq {
				best = ni
			}
		}
		return best
	case SegmentedLRU:
		// Probationary LRU first; only an all-protected set (possible while
		// the set is still filling) evicts from the protected segment.
		if s.lists[0].tail != -1 {
			return s.lists[0].tail
		}
		return s.lists[1].tail
	default:
		panic(fmt.Sprintf("cache: unknown replacement %v", c.cfg.Repl))
	}
}

// ARC ------------------------------------------------------------------
//
// The adaptive replacement cache [Megiddo & Modha, FAST '03] runs per set
// with c = associativity: resident lists T1 (lists[0], seen once) and T2
// (lists[1], seen at least twice) plus ghost tag lists B1/B2 remembering
// recently evicted tags, and an adaptive target p for |T1|. A ghost hit in
// B1 grows p (recency was undervalued), one in B2 shrinks it.

// arcInsert handles a miss on a non-resident line: cases II-IV of the
// paper's Figure 4. Case I (resident hit) is touch.
func (c *Cache) arcInsert(s *set, line uint64, valid uint64, prefetched bool) int32 {
	capn := int32(len(s.nodes))
	li := 0 // list receiving the new line: T1, or T2 after a ghost hit
	if i := ghostFind(s.ghosts[0], line); i >= 0 {
		// Case II: ghost hit in B1 — favor recency.
		delta := int32(1)
		if b1, b2 := int32(len(s.ghosts[0])), int32(len(s.ghosts[1])); b2 > b1 {
			delta = b2 / b1
		}
		s.p += delta
		if s.p > capn {
			s.p = capn
		}
		s.ghosts[0] = ghostRemove(s.ghosts[0], i)
		// Guard (mirrored in the reference model): REPLACE only when the
		// resident lists are actually full — after a purge, ghosts are
		// cleared, so this matches the paper's steady-state invariant.
		if s.lists[0].n+s.lists[1].n >= capn {
			c.arcReplace(s, false)
		}
		li = 1
	} else if i := ghostFind(s.ghosts[1], line); i >= 0 {
		// Case III: ghost hit in B2 — favor frequency.
		delta := int32(1)
		if b1, b2 := int32(len(s.ghosts[0])), int32(len(s.ghosts[1])); b1 > b2 {
			delta = b1 / b2
		}
		s.p -= delta
		if s.p < 0 {
			s.p = 0
		}
		s.ghosts[1] = ghostRemove(s.ghosts[1], i)
		if s.lists[0].n+s.lists[1].n >= capn {
			c.arcReplace(s, true)
		}
		li = 1
	} else {
		// Case IV: brand-new line.
		t1, t2 := s.lists[0].n, s.lists[1].n
		b1, b2 := int32(len(s.ghosts[0])), int32(len(s.ghosts[1]))
		if t1+b1 == capn {
			// IV-A: L1 = T1 ∪ B1 holds exactly c entries.
			if t1 < capn {
				s.ghosts[0] = ghostDropLRU(s.ghosts[0])
				c.arcReplace(s, false)
			} else {
				// B1 empty, T1 full: evict the T1 LRU line outright, with
				// no ghost — the paper deletes it from the cache entirely.
				c.arcEvict(s, 0, false)
			}
		} else if t1+t2+b1+b2 >= capn {
			// IV-B: directory at least half full.
			if t1+t2+b1+b2 >= 2*capn {
				s.ghosts[1] = ghostDropLRU(s.ghosts[1])
			}
			if t1+t2 >= capn {
				c.arcReplace(s, false)
			}
		}
	}
	ni := c.arcFrame(s)
	c.resident++
	n := &s.nodes[ni]
	n.tag = line
	n.present = true
	n.valid = valid
	n.dirty = 0
	n.prefetched = prefetched
	n.freq = 0
	s.table.insert(line, ni)
	s.pushFront(li, ni)
	return ni
}

// arcReplace implements REPLACE(x, p): evict the T1 LRU when T1 exceeds the
// target (or meets it on a B2 ghost hit), else the T2 LRU. If the chosen
// list is empty it falls back to the other — defensively, and identically
// in the reference model, so equivalence holds even for unreachable states.
func (c *Cache) arcReplace(s *set, inB2 bool) {
	t1 := s.lists[0].n
	if t1 >= 1 && (t1 > s.p || (inB2 && t1 == s.p)) {
		c.arcEvict(s, 0, true)
	} else if s.lists[1].tail != -1 {
		c.arcEvict(s, 1, true)
	} else {
		c.arcEvict(s, 0, true)
	}
}

// arcEvict pushes the LRU line of resident list li, optionally recording
// its tag at the MRU end of the matching ghost list, and frees the frame.
func (c *Cache) arcEvict(s *set, li int, ghost bool) {
	ni := s.lists[li].tail
	tag := s.nodes[ni].tag
	c.evictLine(s, ni)
	s.free = append(s.free, ni)
	if ghost {
		s.ghosts[li] = ghostPrepend(s.ghosts[li], tag)
	}
}

// arcFrame allocates a frame: a previously freed one if available, else the
// next never-used one.
func (c *Cache) arcFrame(s *set) int32 {
	if n := len(s.free); n > 0 {
		ni := s.free[n-1]
		s.free = s.free[:n-1]
		return ni
	}
	ni := s.used
	s.used++
	return ni
}

// Ghost lists are short (at most assoc entries) slices ordered
// most-recently-evicted first; linear scans beat any indexing at set sizes.

func ghostFind(g []uint64, tag uint64) int {
	for i, t := range g {
		if t == tag {
			return i
		}
	}
	return -1
}

func ghostRemove(g []uint64, i int) []uint64 {
	copy(g[i:], g[i+1:])
	return g[:len(g)-1]
}

func ghostPrepend(g []uint64, tag uint64) []uint64 {
	g = append(g, 0)
	copy(g[1:], g)
	g[0] = tag
	return g
}

func ghostDropLRU(g []uint64) []uint64 { return g[:len(g)-1] }

// push removes frame ni from s, accounting the push (and write-back traffic
// for any dirty sub-blocks). purge marks pushes caused by a task-switch
// purge.
func (c *Cache) push(s *set, ni int32, purge bool) {
	n := &s.nodes[ni]
	c.accountPush(n, purge)
	s.table.delete(n.tag)
	s.unlink(ni)
	n.present = false
	n.valid = 0
	n.dirty = 0
	n.prefetched = false
	c.resident--
}

// accountPush charges one push leaving the cache subsystem for memory:
// push counters, write-back traffic for dirty sub-blocks, and the sink
// events the next hierarchy level consumes.
func (c *Cache) accountPush(n *node, purge bool) {
	c.stats.Pushes++
	if purge {
		c.stats.PurgePushes++
	}
	if n.dirty != 0 {
		c.stats.DirtyPushes++
		c.stats.WriteTransactions++
		c.stats.BytesToMemory += uint64(bits.OnesCount64(n.dirty)) * c.subSize
		if c.sink != nil {
			base := n.tag << c.lineShift
			for m := n.dirty; m != 0; m &= m - 1 {
				sub := uint(bits.TrailingZeros64(m))
				c.sink.MemWrite(base+uint64(sub)<<c.subShift, int(c.subSize))
			}
		}
	}
}

// victim buffer --------------------------------------------------------
//
// The victim buffer [Jouppi, ISCA '90] is a small fully associative LRU
// annex behind the main array. Capacity evictions transfer their line into
// the buffer instead of pushing it to memory (evictLine); a later demand
// miss that finds its line there swaps it back with no memory traffic
// (demand). Only overflow out of the buffer — and purges — reach memory,
// so `Pushes` keeps meaning "lines leaving the cache subsystem".

// evictLine removes a replacement victim from the main array: into the
// victim buffer when one is configured (its LRU entry overflowing to
// memory if full), straight to memory otherwise. Purge evictions never
// come here — a task switch flushes the buffer too.
func (c *Cache) evictLine(s *set, ni int32) {
	if c.vbuf == nil {
		c.push(s, ni, false)
		return
	}
	n := &s.nodes[ni]
	tag, valid, dirty := n.tag, n.valid, n.dirty
	// Leave the main array without push accounting: the line stays inside
	// the cache subsystem.
	s.table.delete(tag)
	s.unlink(ni)
	n.present = false
	n.valid = 0
	n.dirty = 0
	n.prefetched = false
	c.resident--
	c.stats.VictimFills++
	vb := c.vbuf
	if vb.lists[0].n == int32(len(vb.nodes)) {
		c.vbufPush(vb.lists[0].tail, false)
	}
	vi := c.vbufFrame()
	vn := &vb.nodes[vi]
	vn.tag = tag
	vn.present = true
	vn.valid = valid
	vn.dirty = dirty
	vn.prefetched = false
	vn.freq = 0
	vb.table.insert(tag, vi)
	vb.pushFront(0, vi)
}

// vbufFrame allocates a victim-buffer frame: one recycled by a victim hit
// if available, else the next never-used one.
func (c *Cache) vbufFrame() int32 {
	vb := c.vbuf
	if n := len(vb.free); n > 0 {
		vi := vb.free[n-1]
		vb.free = vb.free[:n-1]
		return vi
	}
	vi := vb.used
	vb.used++
	return vi
}

// vbufRemove takes an entry out of the victim buffer with no push
// accounting (a victim hit: the line returns to the main array).
func (c *Cache) vbufRemove(vi int32) {
	vb := c.vbuf
	n := &vb.nodes[vi]
	vb.table.delete(n.tag)
	vb.unlink(vi)
	n.present = false
	n.valid = 0
	n.dirty = 0
	n.prefetched = false
	vb.free = append(vb.free, vi)
}

// vbufPush writes a victim-buffer entry out to memory with full push
// accounting; purge marks pushes caused by a task-switch purge.
func (c *Cache) vbufPush(vi int32, purge bool) {
	vb := c.vbuf
	n := &vb.nodes[vi]
	c.accountPush(n, purge)
	vb.table.delete(n.tag)
	vb.unlink(vi)
	n.present = false
	n.valid = 0
	n.dirty = 0
	n.prefetched = false
	vb.free = append(vb.free, vi)
}

// Purge empties the cache, pushing every resident line (dirty sub-blocks
// write back). This models the task-switch purges of §3.3/§3.5. ARC ghost
// history and the adaptive target reset too: a purge models a task switch,
// after which the old tags carry no information.
func (c *Cache) Purge() {
	c.combineLive = false
	for si := range c.sets {
		s := &c.sets[si]
		for li := range s.lists {
			for ni := s.lists[li].head; ni != -1; {
				next := s.nodes[ni].next
				c.push(s, ni, true)
				ni = next
			}
		}
		s.used = 0
		s.ghosts[0] = s.ghosts[0][:0]
		s.ghosts[1] = s.ghosts[1][:0]
		s.p = 0
		s.free = s.free[:0]
	}
	if c.vbuf != nil {
		vb := c.vbuf
		for vi := vb.lists[0].head; vi != -1; {
			next := vb.nodes[vi].next
			c.vbufPush(vi, true)
			vi = next
		}
		vb.used = 0
		vb.free = vb.free[:0]
	}
	if c.causes != nil && c.causes.shadow != nil {
		c.causes.shadow.Purge()
	}
}

// list plumbing --------------------------------------------------------

// pushFront links frame ni at the head of list li. The frame must be
// unlinked.
func (s *set) pushFront(li int, ni int32) {
	n := &s.nodes[ni]
	l := &s.lists[li]
	n.seg = uint8(li)
	n.prev = -1
	n.next = l.head
	if l.head != -1 {
		s.nodes[l.head].prev = ni
	}
	l.head = ni
	if l.tail == -1 {
		l.tail = ni
	}
	l.n++
}

// unlink removes frame ni from the list recorded in its seg field.
func (s *set) unlink(ni int32) {
	n := &s.nodes[ni]
	l := &s.lists[n.seg]
	if n.prev != -1 {
		s.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != -1 {
		s.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = -1, -1
	l.n--
}

// moveToFront relinks frame ni at the head of list li, moving it across
// lists if needed.
func (s *set) moveToFront(li int, ni int32) {
	if int(s.nodes[ni].seg) == li && s.lists[li].head == ni {
		return
	}
	s.unlink(ni)
	s.pushFront(li, ni)
}

// checkInvariants validates internal consistency; used by tests.
func (c *Cache) checkInvariants() error {
	total := 0
	for si := range c.sets {
		s := &c.sets[si]
		// Walk both lists forward, confirming linkage, segment tags, counts
		// and index agreement.
		seen := 0
		for li := range s.lists {
			cnt := 0
			prev := int32(-1)
			for ni := s.lists[li].head; ni != -1; ni = s.nodes[ni].next {
				n := &s.nodes[ni]
				if !n.present || n.valid == 0 {
					return fmt.Errorf("set %d: empty node %d on list %d", si, ni, li)
				}
				if int(n.seg) != li {
					return fmt.Errorf("set %d: node %d on list %d has seg %d", si, ni, li, n.seg)
				}
				if n.prev != prev {
					return fmt.Errorf("set %d: node %d prev mismatch", si, ni)
				}
				if got, ok := s.lookup(n.tag); !ok || got != ni {
					return fmt.Errorf("set %d: index mismatch for tag %#x", si, n.tag)
				}
				if int(n.tag)&int(c.setMask) != si {
					return fmt.Errorf("set %d: tag %#x maps to wrong set", si, n.tag)
				}
				if n.dirty&^n.valid != 0 {
					return fmt.Errorf("set %d: dirty sub-blocks not valid in tag %#x", si, n.tag)
				}
				prev = ni
				cnt++
				if cnt > len(s.nodes) {
					return fmt.Errorf("set %d: list %d cycle", si, li)
				}
			}
			if prev != s.lists[li].tail {
				return fmt.Errorf("set %d: list %d tail mismatch", si, li)
			}
			if int32(cnt) != s.lists[li].n {
				return fmt.Errorf("set %d: list %d length %d, counter %d", si, li, cnt, s.lists[li].n)
			}
			seen += cnt
		}
		if int(s.used) != seen+len(s.free) {
			return fmt.Errorf("set %d: used %d != on-list %d + free %d", si, s.used, seen, len(s.free))
		}
		if len(s.ghosts[0]) > len(s.nodes) || len(s.ghosts[1])+len(s.ghosts[0])+seen > 2*len(s.nodes) {
			return fmt.Errorf("set %d: ghost lists exceed directory bound (B1=%d B2=%d resident=%d)",
				si, len(s.ghosts[0]), len(s.ghosts[1]), seen)
		}
		if s.table.slots != nil {
			occupied := 0
			for _, sl := range s.table.slots {
				if sl.ni < 0 {
					continue
				}
				occupied++
				if !s.nodes[sl.ni].present || s.nodes[sl.ni].tag != sl.tag {
					return fmt.Errorf("set %d: table slot for tag %#x disagrees with frame %d", si, sl.tag, sl.ni)
				}
			}
			if occupied != seen {
				return fmt.Errorf("set %d: lists have %d nodes, table has %d", si, seen, occupied)
			}
		}
		total += seen
	}
	if total != c.resident {
		return fmt.Errorf("resident count %d != %d actual", c.resident, total)
	}
	if c.vbuf != nil {
		if err := c.checkVbufInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// checkVbufInvariants validates the victim buffer: list linkage, table
// agreement, capacity, and exclusion (no line may be resident in both the
// buffer and its main set).
func (c *Cache) checkVbufInvariants() error {
	vb := c.vbuf
	cnt := 0
	prev := int32(-1)
	for vi := vb.lists[0].head; vi != -1; vi = vb.nodes[vi].next {
		n := &vb.nodes[vi]
		if !n.present || n.valid == 0 {
			return fmt.Errorf("vbuf: empty node %d on list", vi)
		}
		if n.prev != prev {
			return fmt.Errorf("vbuf: node %d prev mismatch", vi)
		}
		if got, ok := vb.lookup(n.tag); !ok || got != vi {
			return fmt.Errorf("vbuf: index mismatch for tag %#x", n.tag)
		}
		if n.dirty&^n.valid != 0 {
			return fmt.Errorf("vbuf: dirty sub-blocks not valid in tag %#x", n.tag)
		}
		if _, resident := c.sets[n.tag&c.setMask].lookup(n.tag); resident {
			return fmt.Errorf("vbuf: tag %#x resident in both buffer and main set", n.tag)
		}
		prev = vi
		cnt++
		if cnt > len(vb.nodes) {
			return fmt.Errorf("vbuf: list cycle")
		}
	}
	if prev != vb.lists[0].tail {
		return fmt.Errorf("vbuf: tail mismatch")
	}
	if int32(cnt) != vb.lists[0].n {
		return fmt.Errorf("vbuf: list length %d, counter %d", cnt, vb.lists[0].n)
	}
	if int(vb.used) != cnt+len(vb.free) {
		return fmt.Errorf("vbuf: used %d != on-list %d + free %d", vb.used, cnt, len(vb.free))
	}
	return nil
}
