package main

import "time"

// scale sizes every workload. fullScale is the benchmark; the smoke tests
// run tinyScale so all four workloads finish in seconds.
type scale struct {
	// References per section of the two 5-section assortments and per
	// stationary unit, on each grid workload.
	stackSectionRefs, stackUnitRefs     int
	persizeSectionRefs, persizeUnitRefs int
	// Per-engine costs in a traced run use at most this many references
	// of each mix's stream.
	microRefs int
	// Grid ops, or jobs per client, a run makes even when its window is
	// already over.
	minOps int

	// serve-open: Poisson arrival rate, warm-up before the measured window,
	// and the request sizes.
	rate          float64
	warmup        time.Duration
	evalRefLimit  int
	sweepRefLimit int

	// jobs-stream: a per-member reference cap (0 runs every mix at its
	// full paper length).
	jobRefLimit int
}

var fullScale = scale{
	stackSectionRefs: 100_000, stackUnitRefs: 300_000,
	persizeSectionRefs: 25_000, persizeUnitRefs: 30_000,
	microRefs: 100_000,
	minOps:    3,

	rate: 20, warmup: 3 * time.Second,
	evalRefLimit: 100_000, sweepRefLimit: 20_000,
}

var tinyScale = scale{
	stackSectionRefs: 2_000, stackUnitRefs: 5_000,
	persizeSectionRefs: 1_000, persizeUnitRefs: 2_000,
	microRefs: 2_000,
	minOps:    1,

	rate: 40, warmup: 200 * time.Millisecond,
	evalRefLimit: 5_000, sweepRefLimit: 2_000,

	jobRefLimit: 5_000,
}
