package cacheeval_test

import (
	"strings"
	"testing"

	"cacheeval"
)

func TestCorpusAccessors(t *testing.T) {
	if got := len(cacheeval.Corpus()); got != 49 {
		t.Fatalf("Corpus = %d traces", got)
	}
	if got := len(cacheeval.CorpusUnits()); got != 57 {
		t.Fatalf("CorpusUnits = %d", got)
	}
	if got := len(cacheeval.StandardMixes()); got != 16 {
		t.Fatalf("StandardMixes = %d", got)
	}
	spec, err := cacheeval.TraceByName("VSPICE")
	if err != nil || spec.Name != "VSPICE" {
		t.Fatalf("TraceByName = %+v, %v", spec, err)
	}
	if _, err := cacheeval.TraceByName("NOPE"); err == nil {
		t.Fatal("unknown trace must error")
	}
}

func TestMixByName(t *testing.T) {
	mix := cacheeval.MixByName("PLO")
	if mix.Name != "PLO" || mix.Quantum != 15000 {
		t.Fatalf("MixByName = %+v", mix)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MixByName must panic on unknown names")
		}
	}()
	cacheeval.MixByName("NOPE")
}

func TestEvaluateFacade(t *testing.T) {
	rep, err := cacheeval.Evaluate(cacheeval.SystemConfig{
		Unified:       cacheeval.Config{Size: 8192, LineSize: 16},
		PurgeInterval: 20000,
	}, cacheeval.MixByName("ZVI"), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refs != 20000 || rep.MissRatio <= 0 || rep.MissRatio >= 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMultiSystemFacade(t *testing.T) {
	sim, err := cacheeval.NewMultiSystem(cacheeval.MultiConfig{Sizes: []int{1024}, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := cacheeval.TraceByName("MATCH")
	rd, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		ref, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		sim.Ref(ref)
	}
	if sim.Results()[0].Ref.MissRatio() <= 0 {
		t.Fatal("stack engine produced no misses")
	}
}

func TestCacheFacade(t *testing.T) {
	c, err := cacheeval.NewCache(cacheeval.Config{
		Size: 1024, LineSize: 16, Assoc: 2,
		Repl: cacheeval.FIFO, Write: cacheeval.WriteThrough,
		Fetch: cacheeval.PrefetchAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x100, true, 4)
	if c.Stats().Accesses != 1 {
		t.Fatal("facade cache does not work")
	}
	sys, err := cacheeval.NewSystem(cacheeval.SystemConfig{
		Unified: cacheeval.Config{Size: 1024, LineSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Ref(cacheeval.Ref{Addr: 0x10, Size: 4, Kind: cacheeval.Read})
	if sys.RefStats().TotalRefs() != 1 {
		t.Fatal("facade system does not work")
	}
}

func TestAnalyzeFacade(t *testing.T) {
	spec, _ := cacheeval.TraceByName("ZOD")
	rd, _ := spec.Open()
	ch, err := cacheeval.Analyze(rd, 16, 10000)
	if err != nil || ch.Refs != 10000 {
		t.Fatalf("Analyze = %+v, %v", ch, err)
	}
	if ch.FracIFetch() < 0.5 {
		t.Error("Z8000 trace should be ifetch-heavy")
	}
}

func TestDesignHelpers(t *testing.T) {
	sizes := cacheeval.PaperCacheSizes()
	if len(sizes) != 12 || sizes[0] != 32 {
		t.Fatalf("PaperCacheSizes = %v", sizes)
	}
	sizes[0] = 999 // caller-owned copy; must not alias
	if cacheeval.PaperCacheSizes()[0] != 32 {
		t.Fatal("PaperCacheSizes must return a copy")
	}
	if len(cacheeval.Table5Targets()) != 12 {
		t.Fatal("Table5Targets should mirror the paper")
	}
	targets, err := cacheeval.DeriveDesignTargets([]int{1024}, 16, 2000)
	if err != nil || len(targets) != 1 {
		t.Fatalf("DeriveDesignTargets: %v, %v", targets, err)
	}
	est, err := cacheeval.TransferEstimate(0.03, 1, 5) // Z8000 utility -> IBM batch
	if err != nil || est <= 0.03 {
		t.Fatalf("TransferEstimate = %v, %v", est, err)
	}
}

func TestRecommendFacade(t *testing.T) {
	cands, best, err := cacheeval.Recommend(
		cacheeval.MixByName("ZECHO"), []int{1024, 8192},
		cacheeval.DefaultCostModel(), 10000)
	if err != nil || len(cands) != 2 || best < 0 {
		t.Fatalf("Recommend = %v, %d, %v", cands, best, err)
	}
}

func TestExperimentFacade(t *testing.T) {
	o := cacheeval.ExperimentOptions{Sizes: []int{1024, 16384}, RefLimit: 2000}
	t1, err := cacheeval.Table1(o)
	if err != nil || len(t1.Rows) != 57 {
		t.Fatalf("Table1 facade: %v", err)
	}
	if !strings.Contains(t1.Render(), "Table 1") {
		t.Fatal("render broken through the facade")
	}
	sweep, err := cacheeval.Sweep(o)
	if err != nil || len(sweep.Mixes) != 17 {
		t.Fatalf("Sweep facade: %v", err)
	}
}

func TestExploreAndMatrixFacade(t *testing.T) {
	mix := cacheeval.MixByName("ZGREP")
	points, err := cacheeval.Explore(mix, cacheeval.Space{
		Sizes: []int{1024, 8192},
	}, cacheeval.DefaultCostModel(), 10000)
	if err != nil || len(points) != 2 {
		t.Fatalf("Explore: %d points, %v", len(points), err)
	}
	if len(cacheeval.ParetoFrontier(points)) == 0 {
		t.Fatal("empty frontier")
	}
	m, err := cacheeval.EvaluateMatrix(
		[]cacheeval.NamedDesign{{Name: "4K", Config: cacheeval.SystemConfig{
			Unified: cacheeval.Config{Size: 4096, LineSize: 16}}}},
		[]cacheeval.Mix{mix}, 5000)
	if err != nil || len(m.Reports) != 1 {
		t.Fatalf("EvaluateMatrix: %v", err)
	}
}
