// Package cache implements the trace-driven cache simulator at the heart of
// the paper's experiments: direct-mapped through fully-associative mapping,
// LRU/FIFO/Random/LFU/segmented-LRU/ARC replacement, copy-back (with
// fetch-on-write) and
// write-through write policies, demand fetch and "prefetch always", split
// instruction/data and unified organizations, task-switch purging, and full
// miss-ratio and memory-traffic accounting.
package cache

import (
	"fmt"
	"strings"
)

// Replacement selects the line replacement policy.
type Replacement uint8

const (
	// LRU replaces the least-recently-used line (the paper's default).
	LRU Replacement = iota
	// FIFO replaces the oldest line regardless of use.
	FIFO
	// Random replaces a uniformly random line.
	Random
	// LFU replaces the least-frequently-used line, breaking ties toward the
	// least recently used. Use counts start at 1 on a demand fill (0 on a
	// prefetch fill) and reset when the line is replaced.
	LFU
	// SegmentedLRU is the two-queue policy (2Q / segmented LRU): new lines
	// enter a probationary segment; a hit promotes to a protected segment
	// holding at most half the set, demoting the protected LRU line back to
	// probationary when full. Victims come from the probationary segment
	// first, so single-touch scans cannot flush the working set.
	SegmentedLRU
	// ARC is the adaptive replacement cache: two resident lists (recency T1,
	// frequency T2) plus two ghost tag lists (B1, B2) steer an adaptive
	// target p between recency- and frequency-biased eviction, per set.
	ARC
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case LFU:
		return "LFU"
	case SegmentedLRU:
		return "SLRU"
	case ARC:
		return "ARC"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// Replacements returns every replacement policy, in enum order.
func Replacements() []Replacement {
	return []Replacement{LRU, FIFO, Random, LFU, SegmentedLRU, ARC}
}

// ParseReplacement resolves a replacement policy name as accepted by the
// CLI and the evaluation service: lru, fifo, random, lfu, slru (aliases
// segmented-lru, 2q) and arc, case-insensitively.
func ParseReplacement(name string) (Replacement, error) {
	switch strings.ToLower(name) {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "random":
		return Random, nil
	case "lfu":
		return LFU, nil
	case "slru", "segmented-lru", "2q":
		return SegmentedLRU, nil
	case "arc":
		return ARC, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (valid: lru, fifo, random, lfu, slru, arc)", name)
}

// WritePolicy selects how stores reach memory.
type WritePolicy uint8

const (
	// CopyBack writes dirty lines to memory only when they are pushed
	// (replaced or purged). A write miss fetches the line first
	// ("fetch-on-write", i.e. write-allocate), the paper's configuration.
	CopyBack WritePolicy = iota
	// WriteThrough sends every store to memory immediately; lines are never
	// dirty. Allocation on write miss is controlled by Config.NoWriteAllocate.
	WriteThrough
)

// String returns the policy name.
func (w WritePolicy) String() string {
	switch w {
	case CopyBack:
		return "copy-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(w))
	}
}

// FetchPolicy selects when lines are brought into the cache.
type FetchPolicy uint8

const (
	// DemandFetch loads a line only on a miss.
	DemandFetch FetchPolicy = iota
	// PrefetchAlways additionally "verifies that line i+1 is in the cache at
	// the time line i is referenced, and if it is not in the cache, then it
	// prefetches it" (§3.5). This is the policy the paper evaluates.
	PrefetchAlways
	// PrefetchOnMiss probes for line i+1 only when the access to line i
	// missed — the cheaper variant of [Smit78]'s taxonomy.
	PrefetchOnMiss
	// TaggedPrefetch probes for line i+1 on a miss and on the first demand
	// reference to a line that was brought in by a prefetch ([Smit78]'s
	// tagged prefetch: each successful prefetch earns one more).
	TaggedPrefetch
)

// String returns the policy name.
func (f FetchPolicy) String() string {
	switch f {
	case DemandFetch:
		return "demand"
	case PrefetchAlways:
		return "prefetch-always"
	case PrefetchOnMiss:
		return "prefetch-on-miss"
	case TaggedPrefetch:
		return "tagged-prefetch"
	default:
		return fmt.Sprintf("FetchPolicy(%d)", uint8(f))
	}
}

// FetchPolicies returns every fetch policy, in enum order.
func FetchPolicies() []FetchPolicy {
	return []FetchPolicy{DemandFetch, PrefetchAlways, PrefetchOnMiss, TaggedPrefetch}
}

// ParseFetchPolicy resolves a fetch policy name: demand, prefetch-always
// (alias always), prefetch-on-miss (alias onmiss) and tagged-prefetch
// (alias tagged), case-insensitively.
func ParseFetchPolicy(name string) (FetchPolicy, error) {
	switch strings.ToLower(name) {
	case "demand":
		return DemandFetch, nil
	case "prefetch-always", "always":
		return PrefetchAlways, nil
	case "prefetch-on-miss", "onmiss":
		return PrefetchOnMiss, nil
	case "tagged-prefetch", "tagged":
		return TaggedPrefetch, nil
	}
	return 0, fmt.Errorf("cache: unknown fetch policy %q (valid: demand, prefetch-always, prefetch-on-miss, tagged-prefetch)", name)
}

// Config describes a single cache.
type Config struct {
	Name     string // optional label for reports
	Size     int    // total capacity in bytes; power of two
	LineSize int    // line (block) size in bytes; power of two
	// Assoc is the set associativity: 1 = direct mapped, 0 = fully
	// associative (associativity equal to the number of lines).
	Assoc int
	Repl  Replacement
	Write WritePolicy
	// NoWriteAllocate applies only to WriteThrough: when set, a write miss
	// does not load the line into the cache.
	NoWriteAllocate bool
	Fetch           FetchPolicy
	// SubBlock selects a sector cache: the line (sector) is tagged as a
	// whole but fetched SubBlock bytes at a time, the Z80000 organization
	// of §1.2. Zero (or LineSize) disables sectoring. Power of two,
	// dividing LineSize; at most 64 sub-blocks per line.
	SubBlock int
	// CombineWidth enables a one-entry write-combining buffer for
	// write-through caches: consecutive stores falling in the same aligned
	// CombineWidth-byte unit merge into one memory transaction — §3.3's
	// "adjacent short writes are combined into a longer write". Zero
	// disables combining. Power of two; requires WriteThrough.
	CombineWidth int
	// VictimLines enables a Jouppi-style victim cache: a small fully
	// associative LRU buffer behind the main array holding the lines most
	// recently evicted by capacity replacement. A demand miss that finds
	// its line in the buffer swaps it back into the main array with no
	// memory traffic (Stats.VictimHits). Zero disables the buffer.
	// Requires unsectored lines (SubBlock 0 or LineSize); at most
	// MaxVictimLines entries.
	VictimLines int
	// Seed drives Random replacement; ignored by LRU and FIFO.
	Seed uint64
}

// Lines returns the number of lines the cache holds.
func (c Config) Lines() int { return c.Size / c.LineSize }

// EffectiveAssoc returns the associativity actually used: Assoc, clamped to
// the number of lines, with 0 meaning fully associative.
func (c Config) EffectiveAssoc() int {
	lines := c.Lines()
	if c.Assoc <= 0 || c.Assoc > lines {
		return lines
	}
	return c.Assoc
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.EffectiveAssoc() }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if !isPow2(c.Size) {
		return fmt.Errorf("cache: size %d is not a positive power of two", c.Size)
	}
	if !isPow2(c.LineSize) {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineSize, c.Size)
	}
	if c.Assoc < 0 {
		return fmt.Errorf("cache: negative associativity %d", c.Assoc)
	}
	if c.Assoc > 0 && !isPow2(c.Assoc) {
		return fmt.Errorf("cache: associativity %d is not a power of two", c.Assoc)
	}
	if c.Assoc > c.Lines() {
		return fmt.Errorf("cache: associativity %d exceeds line count %d", c.Assoc, c.Lines())
	}
	// Range-check the policy enums: configurations arrive from JSON (the
	// evaluation service) where any integer decodes, and an unknown policy
	// must be a validation error here, not a panic mid-simulation.
	if c.Repl > ARC {
		return fmt.Errorf("cache: unknown replacement policy %d", uint8(c.Repl))
	}
	if c.Write > WriteThrough {
		return fmt.Errorf("cache: unknown write policy %d", uint8(c.Write))
	}
	if c.Fetch > TaggedPrefetch {
		return fmt.Errorf("cache: unknown fetch policy %d", uint8(c.Fetch))
	}
	if c.NoWriteAllocate && c.Write != WriteThrough {
		return fmt.Errorf("cache: NoWriteAllocate requires write-through")
	}
	if c.SubBlock != 0 {
		if !isPow2(c.SubBlock) || c.SubBlock > c.LineSize {
			return fmt.Errorf("cache: sub-block %d must be a power of two <= line size %d", c.SubBlock, c.LineSize)
		}
		if c.LineSize/c.SubBlock > 64 {
			return fmt.Errorf("cache: more than 64 sub-blocks per line (%d/%d)", c.LineSize, c.SubBlock)
		}
	}
	if c.CombineWidth != 0 {
		if c.Write != WriteThrough {
			return fmt.Errorf("cache: write combining requires write-through")
		}
		if !isPow2(c.CombineWidth) {
			return fmt.Errorf("cache: combine width %d is not a power of two", c.CombineWidth)
		}
	}
	if c.VictimLines < 0 || c.VictimLines > MaxVictimLines {
		return fmt.Errorf("cache: victim buffer of %d lines outside [0, %d]", c.VictimLines, MaxVictimLines)
	}
	if c.VictimLines > 0 && c.EffectiveSubBlock() != c.LineSize {
		return fmt.Errorf("cache: victim buffer requires unsectored lines (sub-block %d != line %d)", c.SubBlock, c.LineSize)
	}
	return nil
}

// MaxVictimLines bounds Config.VictimLines: a victim buffer is by
// construction small (Jouppi evaluated 1-15 entries), and the bound keeps
// adversarial configurations from turning the fully associative buffer
// into an O(n) scan per miss.
const MaxVictimLines = 1024

// EffectiveSubBlock returns the fetch granularity in bytes: SubBlock when
// sectoring is enabled, LineSize otherwise.
func (c Config) EffectiveSubBlock() int {
	if c.SubBlock == 0 {
		return c.LineSize
	}
	return c.SubBlock
}

// String summarizes the configuration, e.g.
// "16384B/16B fully-assoc LRU copy-back demand". A config without a line
// size, such as the unused I and D of a unified SystemConfig, has no
// associativity to name.
func (c Config) String() string {
	policies := fmt.Sprintf("%s %s %s", c.Repl, c.Write, c.Fetch)
	if c.LineSize == 0 {
		return fmt.Sprintf("%dB/0B %s", c.Size, policies)
	}
	assoc := fmt.Sprintf("%d-way", c.EffectiveAssoc())
	switch {
	case c.EffectiveAssoc() == c.Lines():
		assoc = "fully-assoc"
	case c.EffectiveAssoc() == 1:
		assoc = "direct-mapped"
	}
	return fmt.Sprintf("%dB/%dB %s %s", c.Size, c.LineSize, assoc, policies)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}
