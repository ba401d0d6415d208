package cache

import "testing"

// FuzzTagTable runs random insert, delete and lookup sequences against a
// tagTable and a map[uint64]int32. The first byte picks a table of 2-64
// slots; each later pair of bytes is one operation on one of 32 tags, most
// of them homed at the table's last two slots or its first, so probe
// chains wrap past the end and backward-shift deletion must move entries
// across the wrap. Inserts keep the load at most 1/2, as the caches do.
// After every operation each mapped tag must be found at its frame and the
// table must hold nothing else.
func FuzzTagTable(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 1, 0, 2, 1, 2, 2})
	f.Add([]byte{1, 0, 8, 0, 16, 1, 8, 2, 16, 1, 16})
	f.Add([]byte{5, 0, 0, 0, 1, 0, 2, 0, 3, 0, 8, 0, 9, 0, 16, 1, 0, 1, 8, 2, 1, 2, 9, 2, 16, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 2 << (ops[0] % 6)
		tt := newTagTable(make([]tagSlot, n))
		// Eight tags homed at each of slots n-1, n-2 and 0, then eight
		// anywhere.
		var tags []uint64
		for _, home := range []uint32{uint32(n - 1), uint32(n - 2), 0} {
			for tag, found := uint64(0), 0; found < 8; tag++ {
				if tt.home(tag) == home {
					tags, found = append(tags, tag), found+1
				}
			}
		}
		for tag := uint64(1 << 40); len(tags) < 32; tag += 0x9E37 {
			tags = append(tags, tag)
		}
		want := map[uint64]int32{}
		for i := 1; i+1 < len(ops); i += 2 {
			tag := tags[int(ops[i+1])%len(tags)]
			ni, in := want[tag]
			switch ops[i] % 3 {
			case 0:
				if !in && len(want) < n/2 {
					ni = int32(i)
					tt.insert(tag, ni)
					want[tag] = ni
				}
			case 1:
				if in {
					tt.delete(tag)
					delete(want, tag)
				}
			default:
				if got, ok := tt.lookup(tag); ok != in || ok && got != ni {
					t.Fatalf("op %d: lookup(%#x) = %d, %v; want %d, %v", i, tag, got, ok, ni, in)
				}
			}
			for tag, ni := range want {
				if got, ok := tt.lookup(tag); !ok || got != ni {
					t.Fatalf("op %d: lookup(%#x) = %d, %v; want %d", i, tag, got, ok, ni)
				}
			}
			used := 0
			for _, sl := range tt.slots {
				if sl.ni >= 0 {
					used++
				}
			}
			if used != len(want) {
				t.Fatalf("op %d: %d slots in use, %d tags indexed", i, used, len(want))
			}
		}
	})
}
