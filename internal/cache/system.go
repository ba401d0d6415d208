package cache

import (
	"fmt"
	"io"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// SystemConfig describes a complete cache organization: either a unified
// cache or split instruction/data caches, plus the task-switch purge
// interval used throughout §3.3-§3.5.
type SystemConfig struct {
	// Split selects separate instruction and data caches. When false the
	// Unified config is used; when true, I and D are.
	Split   bool
	Unified Config
	I, D    Config
	// PurgeInterval is the number of references between full cache purges,
	// simulating multiprogramming task switches (the paper uses 20,000, and
	// 15,000 for the M68000 traces). Zero disables purging.
	PurgeInterval int
}

// Validate checks the active cache configs.
func (sc SystemConfig) Validate() error {
	if sc.PurgeInterval < 0 {
		return fmt.Errorf("cache: negative purge interval %d", sc.PurgeInterval)
	}
	if sc.Split {
		if err := sc.I.Validate(); err != nil {
			return fmt.Errorf("instruction cache: %w", err)
		}
		if err := sc.D.Validate(); err != nil {
			return fmt.Errorf("data cache: %w", err)
		}
		return nil
	}
	return sc.Unified.Validate()
}

// RefStats counts reference-level outcomes per reference kind. A reference
// that straddles a line boundary touches two lines but still counts once; it
// is a miss if any touched line missed.
type RefStats struct {
	Refs   [3]uint64 // indexed by trace.Kind
	Misses [3]uint64
}

// TotalRefs returns all references processed.
func (r RefStats) TotalRefs() uint64 { return r.Refs[0] + r.Refs[1] + r.Refs[2] }

// TotalMisses returns all reference-level misses.
func (r RefStats) TotalMisses() uint64 { return r.Misses[0] + r.Misses[1] + r.Misses[2] }

// MissRatio returns overall misses/references, or 0 for an empty run.
func (r RefStats) MissRatio() float64 {
	if t := r.TotalRefs(); t > 0 {
		return float64(r.TotalMisses()) / float64(t)
	}
	return 0
}

// KindMissRatio returns the miss ratio of one reference kind.
func (r RefStats) KindMissRatio(k trace.Kind) float64 {
	if r.Refs[k] == 0 {
		return 0
	}
	return float64(r.Misses[k]) / float64(r.Refs[k])
}

// DataMissRatio returns the combined read+write miss ratio, the paper's
// "data miss ratio" (Figures 4 and 7).
func (r RefStats) DataMissRatio() float64 {
	refs := r.Refs[trace.Read] + r.Refs[trace.Write]
	if refs == 0 {
		return 0
	}
	return float64(r.Misses[trace.Read]+r.Misses[trace.Write]) / float64(refs)
}

// System drives one or two caches from a reference stream, handling
// split/unified routing, straddling references, purge scheduling and
// reference-level accounting.
type System struct {
	engineProbe
	cfg        SystemConfig
	unified    *Cache
	icache     *Cache
	dcache     *Cache
	refs       RefStats
	refBytes   uint64
	sincePurge int
	purges     uint64
}

// NewSystem builds the caches described by sc.
func NewSystem(sc SystemConfig) (*System, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: sc}
	var err error
	if sc.Split {
		if s.icache, err = New(sc.I); err != nil {
			return nil, err
		}
		if s.dcache, err = New(sc.D); err != nil {
			return nil, err
		}
	} else {
		if s.unified, err = New(sc.Unified); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// SetProbe installs an instrumentation probe for subsequent Run calls. If
// the probe also implements obs.CauseProbe, 3C miss attribution is enabled
// on the system's caches and reported in one batch when Run finishes; a
// plain Probe leaves the attribution machinery off entirely.
func (s *System) SetProbe(p obs.Probe, stage string, totalRefs int64) {
	s.engineProbe.SetProbe(p, stage, totalRefs)
	if _, ok := p.(obs.CauseProbe); ok {
		for _, c := range []*Cache{s.unified, s.icache, s.dcache} {
			if c != nil {
				c.EnableMissCauses()
			}
		}
	}
}

// reportCauses emits the batched 3C attribution to a CauseProbe, summed
// over the system's caches.
func (s *System) reportCauses() {
	cp, ok := s.probe.(obs.CauseProbe)
	if !ok {
		return
	}
	var compulsory, capacity, conflict uint64
	for _, c := range []*Cache{s.unified, s.icache, s.dcache} {
		if c == nil {
			continue
		}
		a, b, d := c.MissCauses()
		compulsory += a
		capacity += b
		conflict += d
	}
	cp.MissCauses(s.stage, compulsory, capacity, conflict)
}

// reportVictim emits victim-buffer hits to a HierarchyProbe when the run's
// configuration includes a victim buffer (zero L2 events: this system is
// single-level; the Hierarchy type reports its own batch).
func (s *System) reportVictim() {
	hp, ok := s.probe.(obs.HierarchyProbe)
	if !ok {
		return
	}
	victim := false
	for _, c := range []*Cache{s.unified, s.icache, s.dcache} {
		if c != nil && c.cfg.VictimLines > 0 {
			victim = true
		}
	}
	if !victim {
		return
	}
	hp.HierarchyRun(s.stage, 0, 0, 0, 0, s.Stats().VictimHits)
}

// cacheFor returns the cache that serves references of kind k.
func (s *System) cacheFor(k trace.Kind) *Cache {
	if !s.cfg.Split {
		return s.unified
	}
	if k == trace.IFetch {
		return s.icache
	}
	return s.dcache
}

// ICache returns the instruction cache (nil for unified systems).
func (s *System) ICache() *Cache { return s.icache }

// DCache returns the data cache (nil for unified systems).
func (s *System) DCache() *Cache { return s.dcache }

// Unified returns the unified cache (nil for split systems).
func (s *System) Unified() *Cache { return s.unified }

// Ref processes one trace reference: purge scheduling, line decomposition,
// and the cache access(es).
func (s *System) Ref(r trace.Ref) {
	if s.cfg.PurgeInterval > 0 {
		if s.sincePurge >= s.cfg.PurgeInterval {
			s.Purge()
			s.sincePurge = 0
		}
		s.sincePurge++
	}
	c := s.cacheFor(r.Kind)
	write := r.Kind == trace.Write
	size := int(r.Size)
	if size < 1 {
		size = 1
	}
	// A reference touches every fetch unit (sub-block, or whole line when
	// unsectored) it spans; it counts once at the reference level and is a
	// miss if any touched unit missed.
	unit := c.subSize
	first := r.Addr &^ (unit - 1)
	last := (r.Addr + uint64(size) - 1) &^ (unit - 1)
	miss := false
	if first == last {
		miss = !c.Access(first, write, size)
	} else {
		units := int((last-first)>>c.subShift) + 1
		storeBytes := size / units // exact for aligned power-of-two accesses
		if storeBytes < 1 {
			storeBytes = 1
		}
		for a := first; ; a += unit {
			if !c.Access(a, write, storeBytes) {
				miss = true
			}
			if a >= last {
				break
			}
		}
	}
	s.refs.Refs[r.Kind]++
	s.refBytes += uint64(size)
	if miss {
		s.refs.Misses[r.Kind]++
	}
}

// RefBytes returns the total bytes the processor requested — the memory
// traffic a cacheless system would generate. The [Hil84] traffic ratio the
// paper's conclusion says "needs to be carefully watched" is
// Stats().MemoryTraffic() / RefBytes().
func (s *System) RefBytes() uint64 { return s.refBytes }

// TrafficRatio returns the ratio of memory traffic with the cache to the
// traffic without it, or 0 for an empty run.
func (s *System) TrafficRatio() float64 {
	if s.refBytes == 0 {
		return 0
	}
	return float64(s.Stats().MemoryTraffic()) / float64(s.refBytes)
}

// Purge empties every cache in the system.
func (s *System) Purge() {
	s.purges++
	if s.cfg.Split {
		s.icache.Purge()
		s.dcache.Purge()
		return
	}
	s.unified.Purge()
}

// Purges returns how many task-switch purges have occurred.
func (s *System) Purges() uint64 { return s.purges }

// RefStats returns reference-level statistics.
func (s *System) RefStats() RefStats { return s.refs }

// SizeResult reports the system's statistics as the result of one sweep
// size.
func (s *System) SizeResult(size int) SizeResult {
	r := SizeResult{Size: size, Ref: s.refs}
	if s.cfg.Split {
		r.I, r.D = s.icache.Stats(), s.dcache.Stats()
	} else {
		r.U = s.unified.Stats()
	}
	return r
}

// Stats returns the aggregate line-level statistics over all caches.
func (s *System) Stats() Stats {
	var total Stats
	if s.cfg.Split {
		total.Add(s.icache.Stats())
		total.Add(s.dcache.Stats())
		return total
	}
	return s.unified.Stats()
}

// Run drives the system from rd until io.EOF or max references (when
// max > 0) and returns the number of references processed.
func (s *System) Run(rd trace.Reader, max int) (int, error) {
	t0 := s.runStart()
	n := 0
	for max <= 0 || n < max {
		ref, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.runEnd(n, t0)
			s.reportCauses()
			s.reportVictim()
			return n, err
		}
		s.Ref(ref)
		n++
		if s.probe != nil && n%obs.ProgressInterval == 0 {
			s.probe.RunProgress(s.stage, int64(n))
		}
	}
	s.runEnd(n, t0)
	s.reportCauses()
	s.reportVictim()
	return n, nil
}
