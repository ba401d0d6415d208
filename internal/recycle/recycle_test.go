package recycle

import "testing"

// TestGetCapacityClasses checks Get's shape: length n, capacity n rounded
// up to a power of two, nil for n <= 0.
func TestGetCapacityClasses(t *testing.T) {
	var p Pool[int]
	for _, tc := range []struct{ n, cap int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1 << 20, 1 << 20}} {
		a := p.Get(tc.n)
		if len(a) != tc.n || cap(a) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(a), cap(a), tc.n, tc.cap)
		}
	}
	for _, n := range []int{0, -1} {
		if a := p.Get(n); a != nil {
			t.Errorf("Get(%d) = %v, want nil", n, a)
		}
	}
}

// TestPutIgnoresForeignSlices checks that Put drops a slice whose capacity
// is not a power of two instead of filing it in a class it does not fit:
// a later Get of that class still returns its full class capacity.
func TestPutIgnoresForeignSlices(t *testing.T) {
	var p Pool[int]
	p.Put(make([]int, 5, 6))
	p.Put(nil)
	if a := p.Get(5); cap(a) != 8 {
		t.Errorf("Get(5) after foreign Puts: cap %d, want 8", cap(a))
	}
}
