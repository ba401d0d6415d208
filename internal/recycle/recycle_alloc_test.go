//go:build !race

package recycle

import "testing"

// TestGetPutAllocatesNothing pins Put's filing: once a class holds a slice,
// a Get and Put cycle through it allocates nothing. A Put that filed the
// slice header itself would move it to the heap, one allocation per cycle.
// The race detector makes sync.Pool drop Puts at random, so this pin builds
// only without it.
func TestGetPutAllocatesNothing(t *testing.T) {
	var p Pool[int]
	p.Put(p.Get(1000))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(1000)) }); n != 0 {
		t.Errorf("warmed Get+Put: %v allocations per cycle, want 0", n)
	}
}
