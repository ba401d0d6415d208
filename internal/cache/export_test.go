package cache

import "fmt"

// CheckInvariants exposes the internal consistency checker to the external
// conformance tests in package cache_test (and, through them, the simcheck
// harness): list linkage, index agreement, set mapping, dirty-implies-valid
// and the resident count.
func (c *Cache) CheckInvariants() error { return c.checkInvariants() }

// StateEqual exposes logical state equality (see Cache.stateEqual) to the
// external state tests.
func (s *System) StateEqual(o *System) bool { return s.stateEqual(o) }

// StateEqual exposes the fan-out engine's logical state equality to the
// external state tests.
func (f *FanoutSystem) StateEqual(o *FanoutSystem) bool { return f.stateEqual(o) }

// Shadowed reports whether the cache's 3C tracker runs a shadow cache; it
// is false when attribution is off or the cache is its own shadow.
func (c *Cache) Shadowed() bool { return c.causes != nil && c.causes.shadow != nil }

// CheckStacks exposes the stack engine's bound and index checks (see
// MultiSystem.checkStacks) to the external equivalence tests.
func (m *MultiSystem) CheckStacks() error { return m.checkStacks() }

// checkStacks verifies each stack of the engine: it holds at most the
// largest size's lines in a node array no longer than that, its list links
// every node once, and its index, twice the node array's capacity, holds
// exactly the stack's lines, each reachable from its home slot.
func (m *MultiSystem) checkStacks() error {
	for _, s := range [...]*multiSim{m.unified, m.icache, m.dcache} {
		if s == nil {
			continue
		}
		limit := s.lines[s.k-1]
		if len(s.nodes) > limit || cap(s.nodes) > limit {
			return fmt.Errorf("stack of %d nodes (capacity %d), largest size %d lines", len(s.nodes), cap(s.nodes), limit)
		}
		if len(s.slots) != 2*cap(s.nodes) {
			return fmt.Errorf("index of %d slots over a node array of capacity %d", len(s.slots), cap(s.nodes))
		}
		n := 0
		for ni := s.head; ni >= 0; ni = s.nodes[ni].next {
			if n++; n > len(s.nodes) {
				return fmt.Errorf("stack list longer than its %d nodes", len(s.nodes))
			}
		}
		if n != len(s.nodes) {
			return fmt.Errorf("stack list links %d of %d nodes", n, len(s.nodes))
		}
		indexed := 0
		for _, v := range s.slots {
			if v == 0 {
				continue
			}
			indexed++
			if int(v) > len(s.nodes) {
				return fmt.Errorf("index slot names node %d of %d", v-1, len(s.nodes))
			}
			line := s.nodes[v-1].line
			mask := uint32(len(s.slots) - 1)
			i := s.home(line)
			for s.slots[i] != v {
				if s.slots[i] == 0 {
					return fmt.Errorf("line %#x unreachable from its home slot", line)
				}
				i = (i + 1) & mask
			}
		}
		if indexed != len(s.nodes) {
			return fmt.Errorf("index holds %d lines, stack %d", indexed, len(s.nodes))
		}
	}
	return nil
}
