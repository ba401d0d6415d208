package cache

// Stats accumulates the measurements the paper reports for a single cache:
// demand accesses and misses (miss ratio), line fetch counts split by cause
// (bus traffic, Figures 8-10), push counts and dirty pushes (write-back
// activity, Table 3), and byte traffic to and from memory.
type Stats struct {
	// Accesses counts demand line accesses (prefetch probes are excluded).
	Accesses uint64
	// Misses counts demand accesses that did not find the line resident.
	// Prefetch fetches never count as misses (§3.5.1).
	Misses uint64
	// WriteAccesses and WriteMisses break out the store sub-stream.
	WriteAccesses uint64
	WriteMisses   uint64

	// DemandFetches counts lines loaded to satisfy a demand miss (including
	// fetch-on-write under copy-back and write-allocate under write-through).
	DemandFetches uint64
	// PrefetchFetches counts lines loaded by the prefetch-always policy.
	PrefetchFetches uint64
	// PrefetchUsed counts prefetched lines later hit by a demand access
	// before being pushed, i.e. useful prefetches.
	PrefetchUsed uint64

	// Pushes counts lines removed from the cache, whether by replacement or
	// purge. DirtyPushes counts those that were modified and so had to be
	// written back (Table 3's numerator under copy-back).
	Pushes      uint64
	DirtyPushes uint64
	// PurgePushes counts the subset of Pushes caused by task-switch purges.
	PurgePushes uint64

	// BytesFromMemory is fetch traffic: LineSize bytes per line fetched.
	// BytesToMemory is write traffic: LineSize per dirty push under
	// copy-back, the store width per write under write-through.
	BytesFromMemory uint64
	BytesToMemory   uint64

	// WriteTransactions counts memory write transactions: one per
	// write-through store (after combining) or per dirty push under
	// copy-back. CombinedWrites counts the write-through stores absorbed
	// into the previous transaction by the combining buffer (§3.3).
	WriteTransactions uint64
	CombinedWrites    uint64

	// VictimHits counts demand misses whose line was found in the victim
	// buffer and swapped back with no memory fetch (so
	// DemandFetches == Misses - VictimHits for unsectored demand caches).
	// VictimFills counts lines transferred from the main array into the
	// buffer by capacity replacement; both are zero without a victim
	// buffer (Config.VictimLines).
	VictimHits  uint64
	VictimFills uint64
}

// MissRatio returns Misses/Accesses, or 0 when there were no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRatio returns 1 - MissRatio for a non-empty run, else 0.
func (s Stats) HitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - s.MissRatio()
}

// LinesFetched returns all lines brought in from memory.
func (s Stats) LinesFetched() uint64 { return s.DemandFetches + s.PrefetchFetches }

// FracPushesDirty returns DirtyPushes/Pushes (Table 3), or 0 when nothing
// was pushed.
func (s Stats) FracPushesDirty() float64 {
	if s.Pushes == 0 {
		return 0
	}
	return float64(s.DirtyPushes) / float64(s.Pushes)
}

// MemoryTraffic returns total bytes moved between cache and memory in both
// directions; the quantity prefetching inflates (§3.5.2).
func (s Stats) MemoryTraffic() uint64 { return s.BytesFromMemory + s.BytesToMemory }

// PrefetchAccuracy returns the fraction of prefetched lines that were used
// before being pushed, or 0 when nothing was prefetched.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchFetches == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(s.PrefetchFetches)
}

// Add accumulates o into s, for aggregating split caches or multiple runs.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.WriteAccesses += o.WriteAccesses
	s.WriteMisses += o.WriteMisses
	s.DemandFetches += o.DemandFetches
	s.PrefetchFetches += o.PrefetchFetches
	s.PrefetchUsed += o.PrefetchUsed
	s.Pushes += o.Pushes
	s.DirtyPushes += o.DirtyPushes
	s.PurgePushes += o.PurgePushes
	s.BytesFromMemory += o.BytesFromMemory
	s.BytesToMemory += o.BytesToMemory
	s.WriteTransactions += o.WriteTransactions
	s.CombinedWrites += o.CombinedWrites
	s.VictimHits += o.VictimHits
	s.VictimFills += o.VictimFills
}
