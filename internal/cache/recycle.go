package cache

import "cacheeval/internal/recycle"

// Array recycling. Code that builds a simulator and drops it when the run
// ends — each size of a per-size sweep, each fan-out pass, each stack
// engine pass, each single-design evaluation — hands its arrays back with
// Release, and the next constructor draws them from here instead of the
// heap (DESIGN.md §6). The stack engine also hands back the arrays it
// outgrows as it doubles. Drawn arrays hold stale contents: every
// constructor resets what it draws exactly as a new array is set up, so a
// recycled simulator is indistinguishable from a new one.
var (
	framePool    recycle.Pool[node]
	slotPool     recycle.Pool[tagSlot]
	fanFramePool recycle.Pool[fanNode]
	stackPool    recycle.Pool[msNode]
	lineSlotPool recycle.Pool[int32]
)
