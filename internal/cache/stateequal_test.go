package cache

import "slices"

// Logical state equality, the recycle and state tests' oracle.
//
// Two simulators that must behave identically from here on — a cache built
// from recycled arrays and a fresh one, say — are compared by logical
// state: from a common state, identical references produce identical
// transitions and statistics.
//
// "State" here is everything that can influence a future access: resident
// tags and their order within each replacement list, per-sub-block valid
// and dirty masks, the prefetched bit, the LFU use count, the ARC ghost
// lists and adaptive target, and the write-combining buffer. It is
// deliberately *logical*: frame indices, free-list order and the tag-index
// layout are allocation details that two caches built by different
// histories need not share and that no policy except Random can observe.
// Random replacement picks victims by frame index from its private rng, so
// its future behaviour is not a function of this state. The 3C-attribution
// shadow (EnableMissCauses) is likewise outside the comparison: it is
// observability state, never consulted by the replacement path.

// stateEqual reports whether c and o — two caches built from the same
// Config — hold identical logical state: the same tags in the same
// replacement-list order with the same valid/dirty/prefetched/use-count
// metadata, the same ARC ghost history and target, the same victim-buffer
// contents in the same recency order, and the same write-combining buffer.
// See the comment above for what "logical" excludes.
func (c *Cache) stateEqual(o *Cache) bool {
	if len(c.sets) != len(o.sets) || c.resident != o.resident {
		return false
	}
	if c.combineLive != o.combineLive {
		return false
	}
	if c.combineLive && c.combineUnit != o.combineUnit {
		return false
	}
	if !vbufEqual(c.vbuf, o.vbuf) {
		return false
	}
	for si := range c.sets {
		a, b := &c.sets[si], &o.sets[si]
		if a.p != b.p {
			return false
		}
		if !slices.Equal(a.ghosts[0], b.ghosts[0]) || !slices.Equal(a.ghosts[1], b.ghosts[1]) {
			return false
		}
		for li := range a.lists {
			if a.lists[li].n != b.lists[li].n {
				return false
			}
			bi := b.lists[li].head
			for ai := a.lists[li].head; ai != -1; ai = a.nodes[ai].next {
				an, bn := &a.nodes[ai], &b.nodes[bi]
				if an.tag != bn.tag || an.valid != bn.valid || an.dirty != bn.dirty ||
					an.prefetched != bn.prefetched || an.freq != bn.freq {
					return false
				}
				bi = bn.next
			}
		}
	}
	return true
}

// stateEqual reports whether two systems built from the same SystemConfig
// hold identical logical cache state (see Cache.stateEqual). Statistics
// and the purge clock are not state.
func (s *System) stateEqual(o *System) bool {
	return cachePairEqual(s.unified, o.unified) &&
		cachePairEqual(s.icache, o.icache) &&
		cachePairEqual(s.dcache, o.dcache)
}

func cachePairEqual(a, b *Cache) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.stateEqual(b)
}

// vbufEqual compares two victim buffers' logical state: the same lines in
// the same recency order with the same valid/dirty masks. Frame indices
// and free-list order are allocation details, excluded like the main
// array's.
func vbufEqual(a, b *set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.lists[0].n != b.lists[0].n {
		return false
	}
	bi := b.lists[0].head
	for ai := a.lists[0].head; ai != -1; ai = a.nodes[ai].next {
		an, bn := &a.nodes[ai], &b.nodes[bi]
		if an.tag != bn.tag || an.valid != bn.valid || an.dirty != bn.dirty {
			return false
		}
		bi = bn.next
	}
	return true
}

// stateEqual reports whether two engines built from the same FanoutConfig
// hold identical logical state: per size, the same lines in the same
// recency order with the same dirty and prefetched bits. The per-kind
// access/probe memos are excluded — they self-validate against the frame
// they point at, so a stale or missing memo changes which lookup path runs
// but never its outcome.
func (f *FanoutSystem) stateEqual(o *FanoutSystem) bool {
	return fanoutCachesEqual(f.unified, o.unified) &&
		fanoutCachesEqual(f.icache, o.icache) &&
		fanoutCachesEqual(f.dcache, o.dcache)
}

func fanoutCachesEqual(a, b []fanoutCache) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].stateEqual(&b[i]) {
			return false
		}
	}
	return true
}

func (c *fanoutCache) stateEqual(o *fanoutCache) bool {
	const observable = fanDirty | fanPrefetched
	bi := o.head
	for ai := c.head; ai != -1; ai = c.nodes[ai].next {
		if bi == -1 {
			return false
		}
		an, bn := &c.nodes[ai], &o.nodes[bi]
		if an.tag != bn.tag || an.flags&observable != bn.flags&observable {
			return false
		}
		bi = bn.next
	}
	return bi == -1
}
