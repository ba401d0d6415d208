// Command bench is the repository's benchmark. It drives the cache-evaluation
// system from outside, through the calls its users make — the experiments
// sweep driver, the engine registry, workload and trace materialization, and
// the HTTP service on a real loopback listener — on four workloads that
// stress different layers, checks every output it measures, and prints each
// metric as "name value unit" followed by one JSON result line.
//
//	bench --workload grid-stack --seed 1 --seconds 25 --trace 0 [--json runs.ndjson]
//	bench compare parent.ndjson change.ndjson
//
// bench/README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts are one run's settings.
type opts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	scale   scale
}

// outcome is what a workload run returns: the operations it attempted, how
// many failed (errors and output mismatches alike), and its metrics.
type outcome struct {
	attempted  int
	failed     int
	mismatches int
	v          values
}

// workloadDef is one benchmark workload. setup builds the system under test
// as run does before its first operation and returns the time it took to
// be ready, tearing it down untimed; run measures the workload.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, o opts) (time.Duration, error)
	run   func(ctx context.Context, o opts) (outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workloadDef {
	return []workloadDef{
		{"grid-stack", "the reproduction's hot path: 12-size LRU grids on the stack-inclusion engines, materialization included",
			gridSetup(stackKind), runGridStack},
		{"grid-persize", "the per-size engines: a victim+L2 hierarchy sweep and an ARC sweep, which copy the stream per pass",
			gridSetup(persizeKind), runGridPersize},
		{"serve-open", "open-loop HTTP traffic over 64 mixes: cold cost is synthesis plus engines, warm cost is HTTP/JSON plus the memo",
			serviceSetup, runServeOpen},
		{"jobs-stream", "async jobs streamed as NDJSON: registry, event probe and streaming, with full-length streams in the stream cache",
			serviceSetup, runJobsStream},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as --json stores it: the result plus what compare needs
// to pair runs and refuse mismatched machines.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	result
}

// setupReps is how many times a run builds its system under test for
// setup_s; it reports their median.
const setupReps = 501

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: grid-stack, grid-persize, serve-open or jobs-stream")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 25, "how long the measured window lasts")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "append the run record to this file (one JSON object per line)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	o := opts{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), traced: *traced == 1, scale: fullScale}
	res, err := measure(context.Background(), w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, newRecord(w.name, o, res)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one workload and assembles its result. After an untraced
// run's window it builds the system under test setupReps times for
// setup_s, from a collected heap, so the page faults of a growing heap and
// a pending collection stay out of the set-up times.
func measure(ctx context.Context, w workloadDef, o opts) (result, error) {
	out, err := w.run(ctx, o)
	if err != nil {
		return result{}, err
	}
	if !o.traced {
		runtime.GC()
		setup := make([]float64, setupReps)
		for i := range setup {
			d, err := w.setup(ctx, o)
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			setup[i] = d.Seconds()
		}
		out.v["setup_s"] = median(setup)
	}
	ms, err := out.v.report(o.traced)
	if err != nil {
		return result{}, err
	}
	if out.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return result{Correct: out.mismatches == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// newRecord stamps a result with the machine and build it ran on.
func newRecord(name string, o opts, res result) record {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return record{
		Workload: name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: rev, result: res,
	}
}

// appendRecord appends rec to path as one JSON line.
func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
