package cache

// missCause classifies a demand miss under the 3C model: compulsory (first
// reference ever to the fetch unit), capacity (a fully-associative LRU
// cache of the same size would also have evicted it), or conflict (only
// the real cache's set mapping/policy lost it).
type missCause uint8

const (
	causeCompulsory missCause = iota
	causeCapacity
	causeConflict
)

// causeTracker attributes demand misses by running a fully associative LRU
// shadow cache of the same capacity alongside the real cache, one shadow
// line per fetch unit. A unit never seen before is a compulsory miss; a
// unit absent from the shadow is a capacity miss; a unit the shadow still
// holds is a conflict miss. Task-switch purges purge the shadow too but
// not the seen set — a re-fetch after a purge is not the first reference.
//
// A cache that is its own shadow (see ownShadow) gets none: it holds what
// the shadow would, so none of its misses is a conflict miss, and the
// tracker runs only on a miss, where a unit not yet seen is compulsory and
// any other is capacity. A hit's unit was referenced before, so hits cost
// nothing beyond the nil check.
//
// Otherwise the shadow starts with at most shadowStartUnits lines and
// doubles, up to one line per fetch unit of capacity, as soon as it fills,
// so it never evicts below full size and its arrays stay proportional to
// the units a run references: a 16 MiB cache with 1-byte sub-blocks would
// otherwise need 16M shadow frames however short the run. The shadow is
// built as any cache is, from the recycler, but the real cache's Release
// leaves it to the garbage collector: handing its arrays back too kept a
// second array of every cache size in the pools, and the service's peak
// RSS rose by about 13%.
// The seen set (unitSet) must remember every unit the run has referenced.
//
// The shadow follows the demand stream only; prefetched lines do not enter
// it (prefetch fills are traffic, not misses, so they are never
// classified). Attribution under prefetching is therefore approximate:
// prefetch pollution in the real cache can surface as conflict misses.
//
// The tracker is optional and nil by default — the hot path pays only a
// nil check when attribution is off.
type causeTracker struct {
	seen      unitSet // every unit ever demand-referenced
	shadow    *Cache  // fully associative LRU, LineSize = fetch unit; nil for ownShadow
	unitShift uint    // log2 of the fetch unit
	units     int     // the shadow's full capacity in lines
	counts    [3]uint64
}

// shadowStartUnits caps the lines a shadow is first built with: every
// unsectored design of the paper's sizes (up to 64 KB of 16-byte lines)
// gets its full shadow at once, and only larger or finer-grained ones grow.
const shadowStartUnits = 4096

// ownShadow reports whether a cache of cfg holds, after every demand
// reference and every purge, exactly the units its shadow would: it is a
// fully associative LRU cache of whole lines that every demand reference,
// and nothing else, brings in. A set mapping, another policy, a prefetch,
// a sector, a store that does not allocate or a victim buffer each make
// the two differ.
func ownShadow(cfg Config) bool {
	return cfg.EffectiveAssoc() == cfg.Lines() && cfg.Repl == LRU && cfg.Fetch == DemandFetch &&
		cfg.EffectiveSubBlock() == cfg.LineSize && !(cfg.Write == WriteThrough && cfg.NoWriteAllocate) &&
		cfg.VictimLines == 0
}

func newCauseTracker(cfg Config) *causeTracker {
	sub := cfg.EffectiveSubBlock()
	t := &causeTracker{seen: newUnitSet(seenStartSlots), unitShift: log2(sub)}
	if !ownShadow(cfg) {
		t.units = cfg.Size / sub
		t.shadow = build(Config{Size: min(t.units, shadowStartUnits) * sub, LineSize: sub})
	}
	return t
}

// access classifies a demand reference against the shadow, before the real
// cache sees it. Only a tracker with a shadow calls it.
func (t *causeTracker) access(addr uint64) missCause {
	everSeen := t.seen.add(addr >> t.unitShift)
	inShadow := t.shadow.Access(addr, false, 0)
	if n := len(t.shadow.frames); n < t.units && t.shadow.resident == n {
		t.grow()
	}
	switch {
	case !everSeen:
		return causeCompulsory
	case !inShadow:
		return causeCapacity
	default:
		return causeConflict
	}
}

// miss counts a demand miss to addr, which access classified as cause if
// the tracker has a shadow. Without one, the cache is its own shadow.
func (t *causeTracker) miss(addr uint64, cause missCause) {
	if t.shadow == nil {
		cause = causeCapacity
		if !t.seen.add(addr >> t.unitShift) {
			cause = causeCompulsory
		}
	}
	t.counts[cause]++
}

// grow doubles the shadow's capacity. The full shadow has evicted nothing,
// so replaying its lines least recent first leaves the larger shadow
// holding the same lines in the same LRU order. The outgrown shadow goes
// back to the recycler, where the next run's growth finds it.
func (t *causeTracker) grow() {
	old := t.shadow
	t.shadow = build(Config{Size: 2 * old.cfg.Size, LineSize: old.cfg.LineSize})
	s := &old.sets[0]
	for ni := s.lists[0].tail; ni >= 0; ni = s.nodes[ni].prev {
		t.shadow.Access(s.nodes[ni].tag<<old.lineShift, false, 0)
	}
	old.Release()
}

// pageUnits is the number of consecutive fetch units a unitSet slot covers,
// one bit each.
const pageUnits = 32

// seenStartSlots is a unitSet's first table length: 48 pages, 1,536 dense
// units, in 768 bytes.
const seenStartSlots = 64

// unitSet is the set of fetch units a run has referenced. Program traces
// are spatially dense, so it is keyed by page, pageUnits consecutive
// units: an open-addressed table of pages with Fibonacci hashing and
// linear probing, as tagTable's, whose slot holds the page and a bitmask
// of the page's units seen. Nothing is ever deleted. Keys and masks live
// in separate arrays, 12 bytes a slot, and the table doubles past load
// 3/4: FGO1's first 100k references touch 2,586 distinct 16-byte units,
// and a sparse run, one unit per page, allocates at most 64 bytes a unit
// over all its tables, where a Go map allocated 47-76.
type unitSet struct {
	keys  []uint64 // page+1; 0 = empty slot
	masks []uint32 // bit u%pageUnits of unit u's page
	used  int      // occupied slots
	shift uint     // 64 - log2(len(keys)); home slot = (key * phi) >> shift
}

// newUnitSet returns an empty set with n slots, a power of two.
func newUnitSet(n int) unitSet {
	return unitSet{keys: make([]uint64, n), masks: make([]uint32, n), shift: 64 - log2(n)}
}

// slot returns the slot holding key, or the empty slot its probe ends at.
func (s *unitSet) slot(key uint64) int {
	mask := len(s.keys) - 1
	i := int((key * fibMult) >> s.shift)
	for s.keys[i] != key && s.keys[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// add records unit and reports whether it was already in the set.
func (s *unitSet) add(unit uint64) bool {
	key, bit := unit/pageUnits+1, uint32(1)<<(unit%pageUnits)
	i := s.slot(key)
	seen := s.masks[i]&bit != 0
	s.masks[i] |= bit
	if s.keys[i] == 0 {
		s.keys[i] = key
		if s.used++; 4*s.used > 3*len(s.keys) {
			s.grow()
		}
	}
	return seen
}

// grow doubles the table, reinserting every page.
func (s *unitSet) grow() {
	old := *s
	*s = newUnitSet(2 * len(old.keys))
	s.used = old.used
	for j, key := range old.keys {
		if key != 0 {
			i := s.slot(key)
			s.keys[i], s.masks[i] = key, old.masks[j]
		}
	}
}

// EnableMissCauses turns on 3C miss attribution for this cache. It must be
// called before the first access. Attribution costs a seen-set probe per
// demand miss for a cache that is its own shadow (fully associative LRU,
// demand fetch, unsectored, write-allocate, no victim buffer), and
// otherwise a seen-set probe and a shadow-cache access per demand
// reference, with a shadow of up to one frame per fetch unit of capacity,
// grown as the run references new units. The seen set grows with the
// distinct units a run references.
func (c *Cache) EnableMissCauses() {
	if c.causes == nil {
		c.causes = newCauseTracker(c.cfg)
	}
}

// MissCauses returns the per-cause demand-miss counts accumulated so far;
// they stay readable after Release. All three are zero unless
// EnableMissCauses was called.
func (c *Cache) MissCauses() (compulsory, capacity, conflict uint64) {
	if c.causes == nil {
		return 0, 0, 0
	}
	return c.causes.counts[causeCompulsory], c.causes.counts[causeCapacity], c.causes.counts[causeConflict]
}
