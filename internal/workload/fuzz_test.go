package workload

import (
	"slices"
	"testing"
)

// FuzzLRUStack drives lruStack with random Touch/AtDepth/Len sequences and
// checks every answer against a naive slice model of an LRU stack: a
// replacement of the stack must match it operation by operation. Each op
// is two bytes, a selector and an argument; AtDepth arguments reach past
// both ends of the stack, where the stack clamps.
func FuzzLRUStack(f *testing.F) {
	f.Add(uint8(4), []byte{0, 2, 1, 8, 0, 3, 1, 9, 2, 0, 0, 2, 1, 10})
	f.Add(uint8(1), []byte{0, 0, 1, 0, 1, 200, 2, 0})
	f.Add(uint8(63), []byte{0, 62, 0, 61, 0, 62, 1, 8, 1, 9, 1, 70, 0, 0, 1, 8})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size)%64 + 1
		s := newLRUStack(n)
		model := make([]uint32, n)
		for i := range model {
			model[i] = uint32(i)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 3 {
			case 0:
				line := uint32(arg % n)
				s.Touch(line)
				j := slices.Index(model, line)
				model = slices.Insert(slices.Delete(model, j, j+1), 0, line)
			case 1:
				d := arg - 8
				if got, want := s.AtDepth(d), model[min(max(d, 0), n-1)]; got != want {
					t.Fatalf("op %d: AtDepth(%d) = %d, want %d", i/2, d, got, want)
				}
			case 2:
				if s.Len() != len(model) {
					t.Fatalf("op %d: Len() = %d, want %d", i/2, s.Len(), len(model))
				}
			}
		}
		for d, want := range model {
			if got := s.AtDepth(d); got != want {
				t.Fatalf("final stack: AtDepth(%d) = %d, want %d", d, got, want)
			}
		}
	})
}
