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
// The shadow starts with at most shadowStartUnits lines and doubles, up to
// one line per fetch unit of capacity, as soon as it fills, so it never
// evicts below full size and its arrays stay proportional to the units a
// run references: a 16 MiB cache with 1-byte sub-blocks would otherwise
// need 16M shadow frames however short the run. The shadow is built as
// any cache is, from the recycler, but the real cache's Release leaves it
// to the garbage collector: handing its arrays back too kept a second
// array of every cache size in the pools, and the service's peak RSS rose
// by about 13%.
// The seen set is a Go map, since it must remember every unit the run has
// referenced.
//
// The shadow follows the demand stream only; prefetched lines do not enter
// it (prefetch fills are traffic, not misses, so they are never
// classified). Attribution under prefetching is therefore approximate:
// prefetch pollution in the real cache can surface as conflict misses.
//
// The tracker is optional and nil by default — the hot path pays only a
// nil check when attribution is off.
type causeTracker struct {
	seen   map[uint64]struct{} // every unit ever demand-referenced
	shadow *Cache              // fully associative LRU, LineSize = fetch unit
	units  int                 // the shadow's full capacity in lines
	counts [3]uint64
}

// shadowStartUnits caps the lines a shadow is first built with: every
// unsectored design of the paper's sizes (up to 64 KB of 16-byte lines)
// gets its full shadow at once, and only larger or finer-grained ones grow.
const shadowStartUnits = 4096

func newCauseTracker(cfg Config) *causeTracker {
	sub := cfg.EffectiveSubBlock()
	units := cfg.Size / sub
	return &causeTracker{
		seen:   make(map[uint64]struct{}),
		shadow: build(Config{Size: min(units, shadowStartUnits) * sub, LineSize: sub}),
		units:  units,
	}
}

func (t *causeTracker) access(addr uint64) missCause {
	unit := t.shadow.LineOf(addr)
	_, everSeen := t.seen[unit]
	if !everSeen {
		t.seen[unit] = struct{}{}
	}
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

// EnableMissCauses turns on 3C miss attribution for this cache. It must be
// called before the first access; attribution costs a map lookup and a
// shadow-cache access per demand reference, and a shadow cache of up to one
// frame per fetch unit of capacity, grown as the run references new units.
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
