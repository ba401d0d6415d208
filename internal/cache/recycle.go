package cache

import "cacheeval/internal/recycle"

// Array recycling. Code that builds a simulator and drops it when the run
// ends — each size of a per-size sweep, each fan-out pass, each
// single-design evaluation — hands its frame and tag arrays back with
// Release, and the next constructor draws them from here instead of the
// heap (DESIGN.md §6). Drawn arrays hold stale contents: every constructor resets what it
// draws exactly as a new array is set up, so a recycled simulator is
// indistinguishable from a new one.
var (
	framePool    recycle.Pool[node]
	slotPool     recycle.Pool[tagSlot]
	fanFramePool recycle.Pool[fanNode]
)
