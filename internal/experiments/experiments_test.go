package experiments

import (
	"errors"
	"strings"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/workload"
)

// quickOpts returns options small enough for unit tests: short traces, a
// reduced size grid.
func quickOpts() Options {
	return Options{
		Sizes:    []int{256, 1024, 4096, 16384},
		RefLimit: 4000,
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 57 {
		t.Fatalf("rows = %d, want 57", len(res.Rows))
	}
	if len(res.Groups) != 7 {
		t.Fatalf("groups = %d, want 7: %v", len(res.Groups), res.Groups)
	}
	for _, row := range res.Rows {
		if row.Refs != 4000 {
			t.Errorf("%s ran %d refs, want 4000", row.Trace, row.Refs)
		}
		prev := 1.1
		for i, m := range row.Miss {
			if m < 0 || m > 1 {
				t.Errorf("%s: miss[%d] = %v", row.Trace, i, m)
			}
			if m > prev {
				t.Errorf("%s: miss not monotone in size", row.Trace)
			}
			prev = m
		}
	}
	if res.SizeIndex(1024) != 1 || res.SizeIndex(999) != -1 {
		t.Error("SizeIndex misbehaves")
	}
	if got := len(res.MissAt(0)); got != 57 {
		t.Errorf("MissAt = %d values", got)
	}
	p50, p85 := res.Percentile(50), res.Percentile(85)
	for i := range p50 {
		if p85[i] < p50[i] {
			t.Error("85th percentile below median")
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "MVS1", "group averages", "VAX LISP"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	fig := res.RenderFigure1()
	if !strings.Contains(fig, "Figure 1") {
		t.Error("figure render missing title")
	}
	// A few rows, spread over the corpus, against one explicit
	// fully-associative LRU System per size.
	o := quickOpts().withDefaults()
	for _, i := range []int{0, len(res.Rows) / 2, len(res.Rows) - 1} {
		row := res.Rows[i]
		spec, err := workload.ByName(row.Trace)
		if err != nil {
			t.Fatal(err)
		}
		for si, size := range res.Sizes {
			rd, err := o.openSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := cache.NewSystem(cache.SystemConfig{Unified: cache.Config{Size: size, LineSize: o.LineSize}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(rd, 0); err != nil {
				t.Fatal(err)
			}
			if got, want := row.Miss[si], sys.RefStats().MissRatio(); got != want {
				t.Errorf("%s @%d: table %v, system %v", row.Trace, size, got, want)
			}
		}
	}
}

func TestTable1Ordering(t *testing.T) {
	// Even at reduced scale, the group ordering the paper reports should
	// hold at 1K: M68000 toys best, MVS-containing 370 worst.
	o := quickOpts()
	o.RefLimit = 20000
	res, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	si := res.SizeIndex(1024)
	m68 := res.GroupAvg["Motorola 68000"][si]
	ibm := res.GroupAvg["IBM 370"][si]
	z := res.GroupAvg["Zilog Z8000"][si]
	vax := res.GroupAvg["VAX (no LISP)"][si]
	if !(m68 < ibm && z < vax && vax < ibm) {
		t.Errorf("group ordering violated: 68k=%.3f z=%.3f vax=%.3f ibm=%.3f", m68, z, vax, ibm)
	}
}

func TestTable2(t *testing.T) {
	res, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 57 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.C.Refs != 4000 {
			t.Errorf("%s analyzed %d refs", row.Trace, row.C.Refs)
		}
		sum := row.C.FracIFetch() + row.C.FracRead() + row.C.FracWrite()
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: mix sums to %v", row.Trace, sum)
		}
	}
	groups, avgs := res.GroupAverages()
	if len(groups) != 7 {
		t.Fatalf("groups = %d", len(groups))
	}
	if avgs["Zilog Z8000"].FracIFetch() < 0.6 {
		t.Error("Z8000 group should be ifetch-heavy")
	}
	out := res.Render()
	for _, want := range []string{"Table 2", "Aspace", "branch%", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure2(t *testing.T) {
	res, err := Figure2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MVS) != 2 {
		t.Fatalf("MVS curves = %d", len(res.MVS))
	}
	for i := 1; i < len(res.Sizes); i++ {
		if res.Supervisor[i] > res.Supervisor[i-1] || res.Problem[i] > res.Problem[i-1] {
			t.Fatal("Hard80 curves must fall with size")
		}
	}
	for i := range res.Sizes {
		if res.Supervisor[i] < res.Problem[i] {
			t.Error("supervisor must be worse than problem state")
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Hard80") || !strings.Contains(out, "MVS1") {
		t.Error("render incomplete")
	}
}

// smallSweep runs the master sweep at test scale once, shared by the
// dependent table tests.
func smallSweep(t *testing.T) *SweepResult {
	t.Helper()
	res, err := Sweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepAndDerivedTables(t *testing.T) {
	sweep := smallSweep(t)
	if len(sweep.Mixes) != 17 {
		t.Fatalf("mixes = %d, want 17 (Table 3's 16 + M68000)", len(sweep.Mixes))
	}
	if len(sweep.Cells) != 17 || len(sweep.Cells[0]) != 4 {
		t.Fatal("cells grid malformed")
	}
	if sweep.MixIndex("MVS1") < 0 || sweep.MixIndex("nope") != -1 {
		t.Error("MixIndex misbehaves")
	}

	// Cell sanity: prefetch never increases the demand-miss count's
	// numerator... it can, actually (cache pollution); but traffic can
	// only grow.
	for mi := range sweep.Mixes {
		for si := range sweep.Sizes {
			c := sweep.Cells[mi][si]
			if c.UnifiedPrefetch.U.MemoryTraffic() < c.UnifiedDemand.U.MemoryTraffic() {
				t.Errorf("%s @%d: prefetch reduced unified traffic",
					sweep.Mixes[mi].Name, sweep.Sizes[si])
			}
			if c.SplitPrefetch.I.MemoryTraffic() < c.SplitDemand.I.MemoryTraffic() {
				t.Errorf("%s @%d: prefetch reduced I traffic",
					sweep.Mixes[mi].Name, sweep.Sizes[si])
			}
			if c.SplitDemand.Ref.TotalRefs() == 0 {
				t.Errorf("%s @%d: empty cell", sweep.Mixes[mi].Name, sweep.Sizes[si])
			}
		}
	}

	// Table 3 from this sweep.
	t3, err := Table3(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 16 {
		t.Fatalf("table 3 rows = %d", len(t3.Rows))
	}
	for _, row := range t3.Rows {
		if !row.HasPaper {
			t.Errorf("%s: no paper value matched", row.Workload)
		}
		if row.Measured < 0 || row.Measured > 1 {
			t.Errorf("%s: measured %v", row.Workload, row.Measured)
		}
	}
	if !strings.Contains(t3.Render(), "Average") {
		t.Error("table 3 render incomplete")
	}

	// Table 4 from this sweep.
	t4 := Table4(sweep)
	if len(t4.Rows) != len(sweep.Sizes) {
		t.Fatalf("table 4 rows = %d", len(t4.Rows))
	}
	for _, row := range t4.Rows {
		for _, v := range []float64{row.Unified, row.Instr, row.Data} {
			if v < 1 {
				t.Errorf("traffic factor %v < 1 at %d", v, row.Size)
			}
		}
	}
	if !strings.Contains(t4.Render(), "Table 4") {
		t.Error("table 4 render incomplete")
	}

	// Figure renders.
	for _, kind := range []FigureKind{Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9, Figure10} {
		out := sweep.RenderFigure(kind)
		if !strings.Contains(out, "Figure") || !strings.Contains(out, "MVS1") {
			t.Errorf("figure %d render incomplete", kind)
		}
	}

	// Table 5 needs a matching Table 1.
	t1, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Table5(t1, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(sweep.Sizes) {
		t.Fatalf("table 5 rows = %d", len(t5.Rows))
	}
	prev := 1.1
	for _, row := range t5.Rows {
		if row.Unified > prev {
			t.Error("derived unified targets must fall with size")
		}
		prev = row.Unified
	}
	if !strings.Contains(t5.Render(), "Per-doubling") {
		t.Error("table 5 render incomplete")
	}
}

func TestTable3RequiresSizePoint(t *testing.T) {
	o := quickOpts()
	o.Sizes = []int{256, 1024} // no 16K point
	sweep, err := SweepMixes(o, workload.StandardMixes()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table3(sweep); err == nil {
		t.Fatal("Table3 must demand the 16K size point")
	}
}

func TestTable5SizeMismatch(t *testing.T) {
	o := quickOpts()
	t1, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	o2 := o
	o2.Sizes = []int{256, 1024}
	sweep, err := SweepMixes(o2, workload.StandardMixes()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table5(t1, sweep); err == nil {
		t.Fatal("mismatched size grids must be rejected")
	}
}

func TestFigureValueSemantics(t *testing.T) {
	var c SweepCell
	c.SplitDemand.Ref.Refs = [3]uint64{100, 50, 50}
	c.SplitDemand.Ref.Misses = [3]uint64{10, 5, 5}
	c.SplitPrefetch.Ref.Refs = c.SplitDemand.Ref.Refs
	c.SplitPrefetch.Ref.Misses = [3]uint64{5, 5, 5}
	if got := FigureValue(Figure3, c); got != 0.1 {
		t.Errorf("Figure3 = %v", got)
	}
	if got := FigureValue(Figure4, c); got != 0.1 {
		t.Errorf("Figure4 = %v", got)
	}
	if got := FigureValue(Figure6, c); got != 0.5 {
		t.Errorf("Figure6 = %v", got)
	}
	if got := FigureValue(FigureKind(99), c); got != 0 {
		t.Errorf("unknown figure = %v", got)
	}
	// Zero denominators yield 0 rather than Inf.
	var empty SweepCell
	if got := FigureValue(Figure5, empty); got != 0 {
		t.Errorf("empty ratio = %v", got)
	}
}

func TestForEach(t *testing.T) {
	// Sequential and parallel runs must produce the same outputs.
	run := func(workers int) []int {
		out := make([]int, 50)
		err := optWorkers(workers).forEach(50, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatal("parallel results differ from sequential")
		}
	}
	// Error propagation: lowest-index error wins.
	boom := errors.New("boom")
	err := optWorkers(4).forEach(10, func(i int) error {
		if i >= 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Sizes) != 12 || o.LineSize != 16 || o.Workers < 1 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.limit(100) != 100 {
		t.Error("RefLimit 0 must not cap")
	}
	o.RefLimit = 10
	if o.limit(100) != 10 || o.limit(5) != 5 {
		t.Error("limit miscaps")
	}
}

func TestFudgeExperiment(t *testing.T) {
	res, err := Fudge()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 7 || len(res.Factors) != 7 {
		t.Fatalf("matrix = %dx%d", len(res.Classes), len(res.Factors))
	}
	for i := range res.Factors {
		if res.Factors[i][i] != 1 {
			t.Errorf("diagonal[%d] = %v", i, res.Factors[i][i])
		}
	}
	out := res.Render()
	for _, want := range []string{"MVS", "RISC", "instr:data"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
