// Command cachesim is a dinero-style trace-driven cache simulator: it reads
// a trace (text or binary format, file or stdin), simulates a configured
// cache system, and prints miss ratios, traffic and write-back statistics.
//
// Examples:
//
//	tracegen -trace FGO1 | cachesim -size 16384 -line 16
//	cachesim -i trace.bin -size 8192 -assoc 2 -repl fifo -write through
//	cachesim -i trace.din -split -size 16384 -prefetch -purge 20000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cacheeval/internal/cache"
	"cacheeval/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

// run executes the simulator with the given arguments; factored out of main
// for testing.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	input := fs.String("i", "-", "input trace file (\"-\" = stdin)")
	format := fs.String("format", "auto", "trace format: text, binary, or auto")
	size := fs.Int("size", 16384, "cache size in bytes (per cache when split)")
	line := fs.Int("line", 16, "line size in bytes")
	assoc := fs.Int("assoc", 0, "associativity (0 = fully associative, 1 = direct mapped)")
	repl := fs.String("repl", "lru", "replacement policy: lru, fifo, random, lfu, slru, arc")
	write := fs.String("write", "copyback", "write policy: copyback, through, through-noalloc")
	prefetch := fs.String("prefetch", "", "prefetch policy: always, onmiss, tagged (empty = demand)")
	subblock := fs.Int("subblock", 0, "sector-cache sub-block bytes (0 = whole-line fetch)")
	combine := fs.Int("combine", 0, "write-combining buffer width in bytes for write-through (0 = off)")
	split := fs.Bool("split", false, "split instruction/data caches instead of unified")
	victim := fs.Int("victim", 0, "victim buffer lines behind each cache (fully associative; 0 = none)")
	l2Size := fs.Int("l2-size", 0, "second-level cache size in bytes (0 = single level)")
	l2Line := fs.Int("l2-line", 0, "second-level line size in bytes (0 = inherit -line)")
	l2Assoc := fs.Int("l2-assoc", 0, "second-level associativity (0 = fully associative)")
	purge := fs.Int("purge", 0, "purge interval in references (0 = never)")
	maxRefs := fs.Int("n", 0, "stop after N references (0 = whole trace)")
	seed := fs.Uint64("seed", 1, "seed for random replacement")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *l2Size == 0 && (*l2Line != 0 || *l2Assoc != 0) {
		return fmt.Errorf("-l2-line and -l2-assoc require -l2-size")
	}

	cfg := cache.Config{
		Size: *size, LineSize: *line, Assoc: *assoc,
		SubBlock: *subblock, CombineWidth: *combine, Seed: *seed,
		VictimLines: *victim,
	}
	r, err := cache.ParseReplacement(*repl)
	if err != nil {
		return err
	}
	cfg.Repl = r
	switch strings.ToLower(*write) {
	case "copyback":
		cfg.Write = cache.CopyBack
	case "through":
		cfg.Write = cache.WriteThrough
	case "through-noalloc":
		cfg.Write = cache.WriteThrough
		cfg.NoWriteAllocate = true
	default:
		return fmt.Errorf("unknown write policy %q", *write)
	}
	switch strings.ToLower(*prefetch) {
	case "", "demand":
		cfg.Fetch = cache.DemandFetch
	case "always", "true":
		cfg.Fetch = cache.PrefetchAlways
	case "onmiss":
		cfg.Fetch = cache.PrefetchOnMiss
	case "tagged":
		cfg.Fetch = cache.TaggedPrefetch
	default:
		return fmt.Errorf("unknown prefetch policy %q", *prefetch)
	}
	sc := cache.SystemConfig{PurgeInterval: *purge}
	if *split {
		sc.Split = true
		sc.I, sc.D = cfg, cfg
	} else {
		sc.Unified = cfg
	}
	sys, err := cache.NewSystem(sc)
	if err != nil {
		return err
	}

	rd, closeFn, err := openTrace(*input, *format, stdin)
	if err != nil {
		return err
	}
	defer closeFn()
	if *l2Size > 0 {
		l2cfg := cache.Config{Size: *l2Size, LineSize: *l2Line, Assoc: *l2Assoc}
		if l2cfg.LineSize == 0 {
			l2cfg.LineSize = *line
		}
		return runHierarchy(stdout, cache.HierarchyConfig{L1: sc, L2: l2cfg}, cfg, rd, *maxRefs, *jsonOut)
	}
	n, err := sys.Run(rd, *maxRefs)
	if err != nil {
		return err
	}

	rs := sys.RefStats()
	if *jsonOut {
		return writeJSON(stdout, cfg, sys, n)
	}
	fmt.Fprintf(stdout, "configuration:    %s", cfg)
	if *split {
		fmt.Fprintf(stdout, " (split I/D)")
	}
	if *purge > 0 {
		fmt.Fprintf(stdout, ", purge every %d refs", *purge)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "references:       %d (ifetch %d, read %d, write %d)\n",
		n, rs.Refs[trace.IFetch], rs.Refs[trace.Read], rs.Refs[trace.Write])
	fmt.Fprintf(stdout, "miss ratio:       %.4f overall, %.4f instruction, %.4f data\n",
		rs.MissRatio(), rs.KindMissRatio(trace.IFetch), rs.DataMissRatio())
	st := sys.Stats()
	fmt.Fprintf(stdout, "fetch traffic:    %d fetches demand, %d prefetch (%d used), %d bytes\n",
		st.DemandFetches, st.PrefetchFetches, st.PrefetchUsed, st.BytesFromMemory)
	fmt.Fprintf(stdout, "write traffic:    %d bytes to memory, %d transactions (%d combined)\n",
		st.BytesToMemory, st.WriteTransactions, st.CombinedWrites)
	fmt.Fprintf(stdout, "pushes:           %d (%d dirty, %.2f dirty fraction, %d by purge)\n",
		st.Pushes, st.DirtyPushes, st.FracPushesDirty(), st.PurgePushes)
	if *victim > 0 {
		fmt.Fprintf(stdout, "victim buffer:    %d lines, %d hits, %d fills\n",
			*victim, st.VictimHits, st.VictimFills)
	}
	fmt.Fprintf(stdout, "traffic ratio:    %.3f (vs cacheless, [Hil84])\n", sys.TrafficRatio())
	fmt.Fprintf(stdout, "purges:           %d\n", sys.Purges())
	return nil
}

// runHierarchy executes the trace through a two-level hierarchy: the
// configured system becomes the first level and every L1 miss (and dirty
// push) feeds the unified second-level cache. The output reports the
// processor's view (the L1 figures), the L2's event stream with its local
// miss ratio, and the global miss ratio — the fraction of references that
// went all the way to memory.
func runHierarchy(stdout io.Writer, hc cache.HierarchyConfig, cfg cache.Config, rd trace.Reader, maxRefs int, jsonOut bool) error {
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		return err
	}
	n, err := h.Run(rd, maxRefs)
	if err != nil {
		return err
	}
	rs := h.RefStats()
	l1, l2, ev := h.Stats(), h.L2Stats(), h.HierStats()
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(hierJSONResult{
			Configuration:   cfg.String(),
			L2Configuration: hc.L2.String(),
			References:      n,
			MissRatio:       rs.MissRatio(),
			InstrMiss:       rs.KindMissRatio(trace.IFetch),
			DataMiss:        rs.DataMissRatio(),
			VictimHits:      l1.VictimHits,
			L2Fetches:       ev.Fetches,
			L2FetchMisses:   ev.FetchMisses,
			L2Writes:        ev.Writes,
			L2WriteMisses:   ev.WriteMisses,
			L2LocalMiss:     ev.LocalMissRatio(),
			GlobalMiss:      h.GlobalMissRatio(),
			BytesFromMemory: l2.BytesFromMemory,
			BytesToMemory:   l2.BytesToMemory,
			Purges:          h.Purges(),
			L1Stats:         l1,
			L2Stats:         l2,
		})
	}
	fmt.Fprintf(stdout, "configuration:    %s", cfg)
	if hc.L1.Split {
		fmt.Fprintf(stdout, " (split I/D)")
	}
	fmt.Fprintf(stdout, " + L2 %s", hc.L2)
	if hc.L1.PurgeInterval > 0 {
		fmt.Fprintf(stdout, ", purge every %d refs", hc.L1.PurgeInterval)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "references:       %d (ifetch %d, read %d, write %d)\n",
		n, rs.Refs[trace.IFetch], rs.Refs[trace.Read], rs.Refs[trace.Write])
	fmt.Fprintf(stdout, "L1 miss ratio:    %.4f overall, %.4f instruction, %.4f data\n",
		rs.MissRatio(), rs.KindMissRatio(trace.IFetch), rs.DataMissRatio())
	if l1.VictimHits > 0 || l1.VictimFills > 0 {
		fmt.Fprintf(stdout, "victim buffer:    %d hits, %d fills\n", l1.VictimHits, l1.VictimFills)
	}
	fmt.Fprintf(stdout, "L2 events:        %d fetches (%d missed), %d write-backs (%d missed)\n",
		ev.Fetches, ev.FetchMisses, ev.Writes, ev.WriteMisses)
	fmt.Fprintf(stdout, "L2 miss ratio:    %.4f local, %.4f global\n",
		ev.LocalMissRatio(), h.GlobalMissRatio())
	fmt.Fprintf(stdout, "memory traffic:   %d bytes fetched, %d bytes written\n",
		l2.BytesFromMemory, l2.BytesToMemory)
	fmt.Fprintf(stdout, "purges:           %d\n", h.Purges())
	return nil
}

// hierJSONResult is the -json output shape of an -l2-size run.
type hierJSONResult struct {
	Configuration   string      `json:"configuration"`
	L2Configuration string      `json:"l2_configuration"`
	References      int         `json:"references"`
	MissRatio       float64     `json:"miss_ratio"`
	InstrMiss       float64     `json:"instruction_miss_ratio"`
	DataMiss        float64     `json:"data_miss_ratio"`
	VictimHits      uint64      `json:"victim_hits"`
	L2Fetches       uint64      `json:"l2_fetches"`
	L2FetchMisses   uint64      `json:"l2_fetch_misses"`
	L2Writes        uint64      `json:"l2_writes"`
	L2WriteMisses   uint64      `json:"l2_write_misses"`
	L2LocalMiss     float64     `json:"l2_local_miss_ratio"`
	GlobalMiss      float64     `json:"global_miss_ratio"`
	BytesFromMemory uint64      `json:"bytes_from_memory"`
	BytesToMemory   uint64      `json:"bytes_to_memory"`
	Purges          uint64      `json:"purges"`
	L1Stats         cache.Stats `json:"l1_stats"`
	L2Stats         cache.Stats `json:"l2_stats"`
}

// jsonResult is the machine-readable output shape of -json.
type jsonResult struct {
	Configuration string         `json:"configuration"`
	References    int            `json:"references"`
	MissRatio     float64        `json:"miss_ratio"`
	InstrMiss     float64        `json:"instruction_miss_ratio"`
	DataMiss      float64        `json:"data_miss_ratio"`
	TrafficRatio  float64        `json:"traffic_ratio"`
	Purges        uint64         `json:"purges"`
	Stats         cache.Stats    `json:"stats"`
	RefStats      cache.RefStats `json:"ref_stats"`
}

// writeJSON emits the run's results as a single JSON object.
func writeJSON(stdout io.Writer, cfg cache.Config, sys *cache.System, n int) error {
	rs := sys.RefStats()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonResult{
		Configuration: cfg.String(),
		References:    n,
		MissRatio:     rs.MissRatio(),
		InstrMiss:     rs.KindMissRatio(trace.IFetch),
		DataMiss:      rs.DataMissRatio(),
		TrafficRatio:  sys.TrafficRatio(),
		Purges:        sys.Purges(),
		Stats:         sys.Stats(),
		RefStats:      rs,
	})
}

// openTrace opens a trace source in the requested format (sniffing on auto).
func openTrace(path, format string, stdin io.Reader) (trace.Reader, func(), error) {
	f, err := trace.ParseFormat(format)
	if err != nil {
		return nil, nil, err
	}
	src := stdin
	closeFn := func() {}
	if path != "-" {
		file, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		src = file
		closeFn = func() { file.Close() }
	}
	rd, err := trace.NewFormatReader(src, f)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return rd, closeFn, nil
}
