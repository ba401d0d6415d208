package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// compare judges a change against its parent from two files of run records
// (bench --json), one row per workload and metric: end-to-end metrics from
// untraced runs, per-layer metrics from traced ones. Runs pair by workload,
// seed and tracing — the k-th parent run of each with the k-th change run of
// the same — and a run without a partner is refused.
//
//   - gain: at least minPairs pairs, the change better in at least 9/10 of
//     them (ties count for neither), and the medians further apart than the
//     parent's interquartile range;
//   - unresolved: the parent's spread (IQR over median) is wider than the
//     metric's bound, unless every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - ok: none of these.
//
// Per-layer metrics have no bound: they are either a gain or ok. Each
// workload also gets a "failed" row: a regression when any change run
// failed more operations than its partner or failed an output check, and
// then no row of that workload counts as a gain. Records from machines with
// another GOMAXPROCS or CPU count are refused.

const (
	minPairs = 10
	winShare = 0.9
)

// verdict is one compared (workload, metric).
type verdict struct {
	workload, metric     string
	pMed, pQ1, pQ3, cMed float64
	worse                float64 // relative change, positive = worse
	wins, pairs          int
	result               string
}

// judge applies the rules to one metric's runs.
func judge(m metric, parent, change []float64) verdict {
	v := verdict{metric: m.Name}
	v.pMed, v.cMed = median(parent), median(change)
	v.pQ1, v.pQ3 = quartiles(parent)
	sign := 1.0
	if m.Better == higher {
		sign = -1
	}
	v.worse = sign * ratio(v.cMed-v.pMed, v.pMed)
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			v.wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	spreadP := iqr(parent)
	switch {
	case v.pairs >= minPairs && float64(v.wins) >= winShare*float64(v.pairs) &&
		v.worse < 0 && math.Abs(v.cMed-v.pMed) > spreadP:
		v.result = "gain"
	case m.Bound == 0:
		v.result = "ok"
	case ratio(spreadP, math.Abs(v.pMed)) > m.Bound && !allBetter:
		v.result = "unresolved"
	case v.worse > m.Bound:
		v.result = "regression"
	default:
		v.result = "ok"
	}
	return v
}

// readRecords loads a --json file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runKey identifies a run for pairing: its workload, seed and tracing, and
// how many earlier runs of the same its file holds.
type runKey struct {
	workload string
	seed     uint64
	traced   bool
	n        int
}

// keyRuns indexes a file's runs by runKey.
func keyRuns(rs []record) map[runKey]record {
	out := map[runKey]record{}
	for _, r := range rs {
		k := runKey{r.Workload, r.Seed, r.Trace, 0}
		for {
			if _, dup := out[k]; !dup {
				break
			}
			k.n++
		}
		out[k] = r
	}
	return out
}

// compareRecords judges every metric of every workload both sides ran. It
// refuses records from different machine shapes and runs that have no
// partner on the other side.
func compareRecords(parent, change []record) ([]verdict, error) {
	var shape *record
	for _, set := range [][]record{parent, change} {
		for i := range set {
			r := &set[i]
			if shape == nil {
				shape = r
			} else if r.GOMAXPROCS != shape.GOMAXPROCS || r.NumCPU != shape.NumCPU {
				return nil, fmt.Errorf("refusing to compare: runs with GOMAXPROCS=%d NumCPU=%d and GOMAXPROCS=%d NumCPU=%d",
					shape.GOMAXPROCS, shape.NumCPU, r.GOMAXPROCS, r.NumCPU)
			}
		}
	}
	p, c := keyRuns(parent), keyRuns(change)
	for _, side := range []struct {
		name      string
		own, peer map[runKey]record
	}{{"parent", p, c}, {"change", c, p}} {
		for k := range side.own {
			if _, ok := side.peer[k]; !ok {
				return nil, fmt.Errorf("refusing to compare: %s run %d of %s at seed %d (traced: %v) has no partner",
					side.name, k.n+1, k.workload, k.seed, k.traced)
			}
		}
	}
	keys := make([]runKey, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.n < b.n
	})
	var out []verdict
	for _, w := range workloads() {
		var untraced, traced [][2]record
		for _, k := range keys {
			switch {
			case k.workload != w.name:
			case k.traced:
				traced = append(traced, [2]record{p[k], c[k]})
			default:
				untraced = append(untraced, [2]record{p[k], c[k]})
			}
		}
		if len(untraced)+len(traced) == 0 {
			continue
		}
		failed := verdict{workload: w.name, metric: "failed", result: "ok"}
		for _, pr := range append(untraced, traced...) {
			failed.pMed += float64(pr[0].Failed)
			failed.cMed += float64(pr[1].Failed)
			if pr[1].Failed > pr[0].Failed || !pr[1].Correct {
				failed.result = "regression"
			}
		}
		for _, side := range []struct {
			set   []metric
			pairs [][2]record
		}{{endToEnd, untraced}, {perLayer, traced}} {
			for _, m := range side.set {
				var pv, cv []float64
				for _, pr := range side.pairs {
					pval, pok := pr[0].Metrics[m.Name]
					cval, cok := pr[1].Metrics[m.Name]
					if pok && cok {
						pv, cv = append(pv, pval.Value), append(cv, cval.Value)
					}
				}
				// A layer the workload never reaches reads 0 on both sides.
				if len(pv) == 0 || (m.Bound == 0 && median(pv) == 0 && median(cv) == 0) {
					continue
				}
				v := judge(m, pv, cv)
				v.workload = w.name
				if v.result == "gain" && failed.result != "ok" {
					v.result = "ok"
				}
				out = append(out, v)
			}
		}
		out = append(out, failed)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workload has runs on both sides")
	}
	return out, nil
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <parent.ndjson> <change.ndjson>")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %v\n", err)
			return 2
		}
		sides[i] = rs
	}
	vs, err := compareRecords(sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median\tchange\twins/pairs\tbound\tverdict")
	rejected := 0
	for _, v := range vs {
		if m, ok := lookupMetric(v.metric); ok {
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g\t%+.1f%%\t%d/%d\t%s\t%s\n",
				v.workload, v.metric, v.pMed, v.pQ1, v.pQ3, v.cMed, 100*ratio(v.cMed-v.pMed, v.pMed),
				v.wins, v.pairs, bound, v.result)
		} else {
			fmt.Fprintf(tw, "%s\t%s (total)\t%.0f\t%.0f\t\t\t\t%s\n", v.workload, v.metric, v.pMed, v.cMed, v.result)
		}
		if v.result == "regression" || v.result == "unresolved" {
			rejected++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	if rejected > 0 {
		fmt.Fprintf(stdout, "not accepted: %d rows regressed or unresolved\n", rejected)
		return 1
	}
	return 0
}
