package cache

import "math/bits"

// linearScanAssoc is the largest associativity for which a set finds tags
// by scanning its frames directly; larger sets use a tagTable.
const linearScanAssoc = 8

// tagSlot is one open-addressing slot: the stored tag and its frame index
// (-1 = empty).
type tagSlot struct {
	tag uint64
	ni  int32
}

// fibMult is 2^64 / golden ratio, the Fibonacci-hashing multiplier.
const fibMult = 0x9E3779B97F4A7C15

// tableLen returns the tag-table length an array of assoc frames indexes
// with: zero for scanned arrays, else the power of two at least 2*assoc
// (load factor <= 1/2).
func tableLen(assoc int) int {
	if assoc <= linearScanAssoc {
		return 0
	}
	return 1 << bits.Len(uint(2*assoc-1))
}

// tagTable is the tag index of a frame array larger than linearScanAssoc:
// a set's, and each size's in the fan-out engine (fully associative caches
// route every line here). It is an open-addressed table of (tag, frame)
// slots with Fibonacci hashing, linear probing at load factor <= 1/2, and
// backward-shift deletion (Knuth vol. 3 §6.4, Algorithm R) so probe chains
// never grow tombstones. Tags live in the slots so a probe costs one cache
// line, not a dependent load into the frame array. A table with nil slots
// indexes nothing: its owner scans its frames, and insert and delete are
// no-ops.
type tagTable struct {
	slots []tagSlot
	shift uint // 64 - log2(len(slots)); home slot = (tag * phi) >> shift
}

// newTagTable returns an empty table over slots, whose length is a power
// of two (nil for a scanned array). The slots' contents are overwritten.
func newTagTable(slots []tagSlot) tagTable {
	t := tagTable{slots: slots, shift: 64 - log2(len(slots))}
	t.reset()
	return t
}

// reset empties the table in place.
func (t *tagTable) reset() {
	for i := range t.slots {
		t.slots[i] = tagSlot{ni: -1}
	}
}

// home returns a tag's preferred slot.
func (t *tagTable) home(tag uint64) uint32 {
	return uint32((tag * fibMult) >> t.shift)
}

// lookup finds the frame holding tag, if indexed. The slots must be
// non-nil.
func (t *tagTable) lookup(tag uint64) (int32, bool) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(tag); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.ni < 0 {
			return -1, false
		}
		if sl.tag == tag {
			return sl.ni, true
		}
	}
}

// insert records that frame ni now holds tag. The tag must be absent.
func (t *tagTable) insert(tag uint64, ni int32) {
	if t.slots == nil {
		return
	}
	mask := uint32(len(t.slots) - 1)
	i := t.home(tag)
	for t.slots[i].ni >= 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tagSlot{tag: tag, ni: ni}
}

// delete removes an indexed tag, back-shifting the probe chain into the
// hole so later lookups need no tombstones.
func (t *tagTable) delete(tag uint64) {
	if t.slots == nil {
		return
	}
	mask := uint32(len(t.slots) - 1)
	i := t.home(tag)
	for t.slots[i].ni < 0 || t.slots[i].tag != tag {
		i = (i + 1) & mask
	}
	for {
		t.slots[i].ni = -1
		j := i
		for {
			j = (j + 1) & mask
			sl := t.slots[j]
			if sl.ni < 0 {
				return
			}
			// Leave sl in place if its home lies cyclically in (i, j] —
			// moving it to i would put it before its probe chain starts.
			if (j-t.home(sl.tag))&mask < (j-i)&mask {
				continue
			}
			t.slots[i] = sl
			break
		}
		i = j
	}
}
