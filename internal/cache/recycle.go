package cache

import (
	"math/bits"
	"sync"
)

// Array recycling. An engine that runs one simulator per size and drops it
// when the sweep ends hands its frame and tag arrays back with Release, and
// the next constructor draws them from here instead of the heap (DESIGN.md
// §6). Drawn arrays hold stale contents: every constructor resets what it
// draws exactly as a new array is set up, so a recycled simulator is
// indistinguishable from a new one. sync.Pool drops idle arrays across
// garbage collections, so the recycler holds no memory a quiet process
// would otherwise free.
var (
	framePool    arrayPool[node]
	slotPool     arrayPool[tagSlot]
	fanFramePool arrayPool[fanNode]
)

// arrayPool recycles []T by capacity class: class k holds arrays of
// capacity exactly 1<<k.
type arrayPool[T any] struct {
	classes [bits.UintSize]sync.Pool
}

// get returns an array of length n with unspecified contents, or nil for
// n <= 0. Its capacity is n rounded up to a power of two.
func (p *arrayPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	if a, ok := p.classes[k].Get().(*[]T); ok {
		return (*a)[:n]
	}
	return make([]T, n, 1<<k)
}

// put hands an array from get back for reuse. The caller must hold no
// other reference to it. Arrays get did not make (capacity not a power of
// two, or zero) are left to the garbage collector.
func (p *arrayPool[T]) put(a []T) {
	c := cap(a)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	a = a[:c]
	p.classes[bits.TrailingZeros(uint(c))].Put(&a)
}
