package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"cacheeval/internal/core"
	"cacheeval/internal/obs"
	"cacheeval/internal/stats"
	"cacheeval/internal/textplot"
	"cacheeval/internal/workload"
)

// Table1Row is one trace's overall miss ratios across cache sizes for the
// Table 1 / Figure 1 configuration: fully associative, LRU replacement,
// demand fetch, no task-switch purges, copy-back with fetch-on-write,
// 16-byte lines.
type Table1Row struct {
	Trace string
	Group string
	Refs  int
	Miss  []float64 // indexed like Result.Sizes
}

// Table1Result holds the full Table 1 / Figure 1 reproduction.
type Table1Result struct {
	Sizes []int
	Rows  []Table1Row
	// Groups lists reporting groups in first-appearance order; GroupAvg
	// holds each group's arithmetic-mean miss curve.
	Groups   []string
	GroupAvg map[string][]float64
}

// Table1 simulates all 57 trace units of the corpus in the Table 1
// configuration, the inclusion-property case: core.RunSweep selects the
// one-pass stack engine (cache.MultiSystem), which yields every cache size
// simultaneously. Like every sweep, it rejects sizes that are not a power
// of two at least one line long.
func Table1(o Options) (*Table1Result, error) {
	o = o.withDefaults()
	units := workload.Units()
	res := &Table1Result{Sizes: o.Sizes, Rows: make([]Table1Row, len(units))}
	err := o.forEach(len(units), func(i int) error {
		spec := units[i]
		n, miss, err := o.lruCurve(spec, o.Sizes, o.Sink, "table1:"+spec.Name)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", spec.Name, err)
		}
		res.Rows[i] = Table1Row{
			Trace: spec.Name,
			Group: workload.Group(spec),
			Refs:  n,
			Miss:  miss,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.aggregate()
	return res, nil
}

// lruCurve runs a trace in the Table 1 configuration — unified, fully
// associative, LRU, demand fetch, no purging — at every size in one
// registry sweep and returns the references simulated and the overall miss
// ratio at each size. sink and stage label the run's events.
func (o Options) lruCurve(s workload.Spec, sizes []int, sink obs.Sink, stage string) (int, []float64, error) {
	rd, err := o.openSpec(s)
	if err != nil {
		return 0, nil, err
	}
	out, err := core.RunSweep(context.Background(), core.SweepSpec{Sizes: sizes, LineSize: o.LineSize},
		rd, sink, stage, int64(o.limit(s.Refs)))
	if err != nil {
		return 0, nil, err
	}
	miss := make([]float64, len(out.Results))
	for i, r := range out.Results {
		miss[i] = r.Ref.MissRatio()
	}
	return int(out.Results[0].Ref.TotalRefs()), miss, nil
}

func (r *Table1Result) aggregate() {
	sums := map[string][]float64{}
	counts := map[string]int{}
	for _, row := range r.Rows {
		if _, ok := sums[row.Group]; !ok {
			sums[row.Group] = make([]float64, len(r.Sizes))
			r.Groups = append(r.Groups, row.Group)
		}
		for i, m := range row.Miss {
			sums[row.Group][i] += m
		}
		counts[row.Group]++
	}
	r.GroupAvg = map[string][]float64{}
	for g, s := range sums {
		avg := make([]float64, len(s))
		for i := range s {
			avg[i] = s[i] / float64(counts[g])
		}
		r.GroupAvg[g] = avg
	}
}

// MissAt returns all per-trace miss ratios at one size index, e.g. to feed
// the Table 5 design-estimate percentile.
func (r *Table1Result) MissAt(sizeIdx int) []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Miss[sizeIdx]
	}
	return out
}

// SizeIndex returns the index of a cache size in Sizes, or -1.
func (r *Table1Result) SizeIndex(size int) int {
	for i, s := range r.Sizes {
		if s == size {
			return i
		}
	}
	return -1
}

// Render formats the per-trace table (Table 1).
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: overall miss ratios — fully associative, LRU, demand fetch,\n")
	b.WriteString("copy-back (fetch-on-write), 16-byte lines, no purging\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "trace\tgroup\trefs")
	for _, s := range r.Sizes {
		fmt.Fprintf(w, "\t%s", sizeLabel(s))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%s\t%d", row.Trace, row.Group, row.Refs)
		for _, m := range row.Miss {
			fmt.Fprintf(w, "\t%s", fmtMiss(m))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "group averages\t\t")
	fmt.Fprintln(w)
	for _, g := range r.Groups {
		fmt.Fprintf(w, "%s\t\t", g)
		for _, m := range r.GroupAvg[g] {
			fmt.Fprintf(w, "\t%s", fmtMiss(m))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// RenderFigure1 plots the group-average miss-ratio curves (Figure 1 shows
// the same data as Table 1).
func (r *Table1Result) RenderFigure1() string {
	p := textplot.Plot{
		Title:  "Figure 1: miss ratio vs cache size (group averages)",
		XLabel: "cache size (bytes)",
		YLabel: "miss",
		LogX:   true,
		LogY:   true,
	}
	groups := append([]string(nil), r.Groups...)
	sort.Strings(groups)
	xs := make([]float64, len(r.Sizes))
	for i, s := range r.Sizes {
		xs[i] = float64(s)
	}
	for _, g := range groups {
		p.Add(textplot.Series{Name: g, Xs: xs, Ys: r.GroupAvg[g]})
	}
	return p.Render()
}

// Percentile returns the p-th percentile of per-trace miss ratios at each
// size (the §4.1 design-estimate machinery).
func (r *Table1Result) Percentile(p float64) []float64 {
	out := make([]float64, len(r.Sizes))
	for i := range r.Sizes {
		out[i] = stats.Percentile(r.MissAt(i), p)
	}
	return out
}

// sizeLabel formats a cache size column header.
func sizeLabel(s int) string {
	if s >= 1024 && s%1024 == 0 {
		return fmt.Sprintf("%dK", s/1024)
	}
	return fmt.Sprintf("%dB", s)
}
