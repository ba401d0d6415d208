// Package recycle hands out slices by power-of-two capacity class and takes
// them back for reuse. The cache simulators draw their frame and tag arrays
// from it, and the experiments sweep draws its materialized reference
// streams (DESIGN.md §6 and §9).
//
// A drawn slice holds stale contents: the caller sets up every element it
// reads. Each class is a sync.Pool, which drops idle slices across garbage
// collections, so a pool holds no memory a quiet process would otherwise
// free, and it has no size or option to tune.
package recycle

import (
	"math/bits"
	"sync"
)

// Pool recycles []T by capacity class: class k holds slices of capacity
// exactly 1<<k. The zero value is ready to use and safe for concurrent use.
type Pool[T any] struct {
	classes [bits.UintSize]sync.Pool
}

// Get returns a slice of length n with unspecified contents, or nil for
// n <= 0. Its capacity is n rounded up to a power of two.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	if a, ok := p.classes[k].Get().(*[]T); ok {
		return (*a)[:n]
	}
	return make([]T, n, 1<<k)
}

// Put hands a slice from Get back for reuse. The caller must hold no other
// reference to it. Slices Get did not make (capacity not a power of two,
// or zero) are left to the garbage collector.
func (p *Pool[T]) Put(a []T) {
	c := cap(a)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	a = a[:c]
	p.classes[bits.TrailingZeros(uint(c))].Put(&a)
}
