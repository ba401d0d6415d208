package cache

import (
	"fmt"
	"io"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// StackSim implements the classic one-pass stack algorithm (Mattson et al.)
// for fully-associative LRU with demand fetch: a single pass over a trace
// yields the demand miss ratio at every cache size simultaneously. Table 1
// of the paper — 57 traces × a dozen cache sizes under exactly this policy —
// is regenerated with it.
//
// The inclusion property of LRU guarantees a cache of L lines holds exactly
// the L most recently used lines, so a reference at stack distance d hits
// in every cache with at least d+1 lines and misses in all smaller ones.
type StackSim struct {
	engineSink
	lineShift uint
	stack     []uint64 // line addresses, most recent first
	dist      []uint64 // dist[d] = references that hit at stack distance d
	cold      uint64   // first-touch (infinite distance) references
	accesses  uint64
}

// NewStackSim returns a StackSim for the given line size (power of two).
func NewStackSim(lineSize int) (*StackSim, error) {
	if !trace.IsPow2(lineSize) {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", lineSize)
	}
	return &StackSim{lineShift: log2(lineSize)}, nil
}

// Ref processes one reference.
func (s *StackSim) Ref(addr uint64) {
	s.accesses++
	line := addr >> s.lineShift
	// Find the line's stack depth by linear search; the cost is the stack
	// distance itself, which locality keeps small on real(istic) traces.
	for d, l := range s.stack {
		if l == line {
			copy(s.stack[1:d+1], s.stack[:d])
			s.stack[0] = line
			for len(s.dist) <= d {
				s.dist = append(s.dist, 0)
			}
			s.dist[d]++
			return
		}
	}
	s.cold++
	s.stack = append(s.stack, 0)
	copy(s.stack[1:], s.stack)
	s.stack[0] = line
}

// Run drives the simulator from rd until io.EOF or max references (max > 0)
// and returns the number processed.
func (s *StackSim) Run(rd trace.Reader, max int) (int, error) {
	t0 := s.runStart()
	n := 0
	for max <= 0 || n < max {
		ref, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.runEnd(n, t0)
			return n, err
		}
		s.Ref(ref.Addr)
		n++
		if s.sink != nil && n%obs.ProgressInterval == 0 {
			s.progress(n)
		}
	}
	s.runEnd(n, t0)
	return n, nil
}

// Accesses returns the number of references processed.
func (s *StackSim) Accesses() uint64 { return s.accesses }

// Footprint returns the number of distinct lines seen.
func (s *StackSim) Footprint() int { return len(s.stack) }

// Misses returns the demand miss count for a fully-associative LRU cache of
// the given size in bytes.
func (s *StackSim) Misses(cacheSize int) uint64 {
	lines := cacheSize >> s.lineShift
	m := s.cold
	for d := lines; d < len(s.dist); d++ {
		m += s.dist[d]
	}
	return m
}

// MissRatio returns misses/accesses at the given cache size, or 0 for an
// empty run.
func (s *StackSim) MissRatio(cacheSize int) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.Misses(cacheSize)) / float64(s.accesses)
}

// MissRatios evaluates several cache sizes at once.
func (s *StackSim) MissRatios(cacheSizes []int) []float64 {
	out := make([]float64, len(cacheSizes))
	for i, sz := range cacheSizes {
		out[i] = s.MissRatio(sz)
	}
	return out
}

// DistanceCounts returns a copy of the LRU stack-distance histogram:
// element d is the number of references that hit at depth d. Cold
// (first-touch) references are reported separately by ColdMisses. The
// histogram fully determines the miss curve: Misses(C) = ColdMisses +
// sum of counts at depths >= C/LineSize.
func (s *StackSim) DistanceCounts() []uint64 {
	return append([]uint64(nil), s.dist...)
}

// ColdMisses returns the number of first-touch references.
func (s *StackSim) ColdMisses() uint64 { return s.cold }

// MeanDistance returns the average stack distance of re-references (cold
// misses excluded), a one-number locality summary. Returns 0 when there
// were no re-references.
func (s *StackSim) MeanDistance() float64 {
	var n, sum uint64
	for d, c := range s.dist {
		n += c
		sum += uint64(d) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
