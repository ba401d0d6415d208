package cache

import (
	"errors"
	"testing"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

func hierHC(l1, l2 int) HierarchyConfig {
	return HierarchyConfig{
		L1: unifiedSC(l1),
		L2: Config{Size: l2, LineSize: 32},
	}
}

func mustHierarchy(t *testing.T, hc HierarchyConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(hc)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

// hierRefs is a read/write stream whose footprint exceeds an L1 of l1Size
// bytes but sits inside a comfortably larger L2, so both levels see misses
// and the L1 generates write-back traffic.
func hierRefs(n, l1Size int) []trace.Ref {
	refs := make([]trace.Ref, n)
	footprint := uint64(4 * l1Size)
	for i := range refs {
		addr := (uint64(i) * 52) % footprint
		k := trace.Read
		if i%3 == 0 {
			k = trace.Write
		}
		refs[i] = trace.Ref{Addr: addr, Size: 4, Kind: k}
	}
	return refs
}

func TestHierarchyConfigValidate(t *testing.T) {
	if err := hierHC(256, 2048).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := hierHC(256, 2048)
	bad.L1.Unified.Size = 100
	if err := bad.Validate(); err == nil {
		t.Error("invalid L1 must be rejected")
	}
	bad = hierHC(256, 2048)
	bad.L2.Size = 100
	if err := bad.Validate(); err == nil {
		t.Error("invalid L2 must be rejected")
	}
	if err := hierHC(2048, 256).Validate(); err == nil {
		t.Error("inverted hierarchy (L2 < L1) must be rejected")
	}
	// The split form counts both halves toward the L1 capacity: a 2x256 L1
	// does not fit under a 256-byte L2 even though either half would.
	split := HierarchyConfig{L1: splitSC(256), L2: Config{Size: 256, LineSize: 32}}
	if err := split.Validate(); err == nil {
		t.Error("split L1 total larger than L2 must be rejected")
	}
	split.L2.Size = 2048
	if err := split.Validate(); err != nil {
		t.Fatalf("valid split config rejected: %v", err)
	}
}

func TestHierStatsRatios(t *testing.T) {
	var z HierStats
	if z.Events() != 0 || z.Misses() != 0 || z.LocalMissRatio() != 0 || z.FetchMissRatio() != 0 {
		t.Fatal("zero-value HierStats must report zero everywhere")
	}
	h := HierStats{Fetches: 10, FetchMisses: 4, Writes: 5, WriteMisses: 1}
	if h.Events() != 15 || h.Misses() != 5 {
		t.Fatalf("Events/Misses = %d/%d, want 15/5", h.Events(), h.Misses())
	}
	if got := h.LocalMissRatio(); got != 5.0/15.0 {
		t.Fatalf("LocalMissRatio = %v, want 1/3", got)
	}
	if got := h.FetchMissRatio(); got != 0.4 {
		t.Fatalf("FetchMissRatio = %v, want 0.4", got)
	}
}

func TestNewHierarchyRejectsInvalid(t *testing.T) {
	if _, err := NewHierarchy(hierHC(2048, 256)); err == nil {
		t.Fatal("NewHierarchy must reject an inverted hierarchy")
	}
	l2 := mustCache(t, hierHC(256, 2048).L2)
	if _, err := NewHierarchyOver(hierHC(2048, 256), l2); err == nil {
		t.Fatal("NewHierarchyOver must reject an inverted hierarchy")
	}
	if _, err := NewHierarchyOver(hierHC(256, 4096), l2); err == nil {
		t.Fatal("NewHierarchyOver must reject an L2 built for another configuration")
	}
}

func TestHierarchyAccessorsZero(t *testing.T) {
	hc := hierHC(256, 2048)
	h := mustHierarchy(t, hc)
	if h.Config() != hc {
		t.Error("Config() must round-trip the construction config")
	}
	if h.L1() == nil || h.L2() == nil {
		t.Fatal("level accessors must be non-nil")
	}
	if h.GlobalMissRatio() != 0 || h.L2LocalMissRatio() != 0 {
		t.Error("fresh hierarchy must report zero miss ratios")
	}
	if h.Purges() != 0 {
		t.Error("fresh hierarchy must report zero purges")
	}
}

// TestHierarchyEventIdentities pins the cross-level accounting on a real
// run: every L1 fetch becomes exactly one L2 fetch event (unsectored L1
// lines no wider than an L2 line), every dirty push one write event, and
// under demand fetch the global miss ratio is exactly the product of the
// per-level ratios.
func TestHierarchyEventIdentities(t *testing.T) {
	h := mustHierarchy(t, hierHC(256, 4096))
	refs := hierRefs(20000, 256)
	n, err := h.Run(trace.NewSliceReader(refs), 0)
	if err != nil || n != len(refs) {
		t.Fatalf("Run = %d, %v", n, err)
	}
	l1, l2, ev := h.Stats(), h.L2Stats(), h.HierStats()
	if ev.Fetches == 0 || ev.Writes == 0 {
		t.Fatalf("stream must drive both event kinds: %+v", ev)
	}
	if want := l1.DemandFetches + l1.PrefetchFetches; ev.Fetches != want {
		t.Errorf("L2 fetch events = %d, want L1 fetches %d", ev.Fetches, want)
	}
	if ev.Writes != l1.DirtyPushes {
		t.Errorf("L2 write events = %d, want L1 dirty pushes %d", ev.Writes, l1.DirtyPushes)
	}
	// 16-byte L1 lines fit in one 32-byte L2 unit, so events and L2
	// accesses correspond one to one.
	if l2.Accesses != ev.Events() {
		t.Errorf("L2 accesses = %d, want %d events", l2.Accesses, ev.Events())
	}
	global := h.GlobalMissRatio()
	product := h.RefStats().MissRatio() * ev.FetchMissRatio()
	// Both sides are exact ratios of the same integer counts; allow only
	// float rounding.
	if diff := global - product; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("global miss ratio %v != L1 x L2 product %v", global, product)
	}
	if h.RefBytes() == 0 {
		t.Error("RefBytes must count the processor's request bytes")
	}
}

// TestHierarchyWideEventDecomposition covers the multi-unit l2access path:
// a 64-byte L1 line spans four 16-byte L2 lines, so each fetch event
// decomposes into four L2 accesses.
func TestHierarchyWideEventDecomposition(t *testing.T) {
	hc := HierarchyConfig{
		L1: SystemConfig{Unified: Config{Size: 512, LineSize: 64}},
		L2: Config{Size: 4096, LineSize: 16},
	}
	h := mustHierarchy(t, hc)
	if _, err := h.Run(trace.NewSliceReader(hierRefs(5000, 512)), 0); err != nil {
		t.Fatal(err)
	}
	ev, l2 := h.HierStats(), h.L2Stats()
	if want := 4 * ev.Fetches; l2.Accesses < want {
		t.Errorf("L2 accesses = %d, want >= %d (4 per fetch event)", l2.Accesses, want)
	}
	// A degenerate zero-size event still probes one unit.
	before := h.L2Stats().Accesses
	h.MemRead(0, 0)
	if h.L2Stats().Accesses != before+1 {
		t.Error("zero-size event must clamp to one unit")
	}
}

func TestHierarchyPurgeScheduling(t *testing.T) {
	hc := hierHC(256, 2048)
	hc.L1.PurgeInterval = 10
	h := mustHierarchy(t, hc)
	refs := hierRefs(100, 256)
	for _, r := range refs {
		h.Ref(r)
	}
	if h.Purges() == 0 {
		t.Fatal("purge interval 10 must purge during 100 refs")
	}
	// The inner System must not also purge on its own schedule: the
	// hierarchy owns task switches, so every L1 purge is one the
	// hierarchy drove (self-scheduling would make the counts diverge).
	if h.L1().Purges() != h.Purges() {
		t.Errorf("inner L1 purges = %d, hierarchy drove %d", h.L1().Purges(), h.Purges())
	}
	// An explicit purge pushes L1 dirty lines through the L2 as write
	// events and then flushes the L2 itself to memory.
	evBefore := h.HierStats().Writes
	h.Purge()
	if h.HierStats().Writes <= evBefore {
		t.Error("purge must write dirty L1 lines through the L2")
	}
	if h.L2Stats().BytesToMemory == 0 {
		t.Error("purged L2 must have pushed dirty lines to memory")
	}
}

type hierProbe struct {
	obs.NopProbe
	stage      string
	fetches    uint64
	writes     uint64
	victimHits uint64
	calls      int
}

func (p *hierProbe) HierarchyRun(stage string, f, fm, w, wm, vh uint64) {
	p.stage, p.fetches, p.writes, p.victimHits = stage, f, w, vh
	p.calls++
}

type errReader struct{ err error }

func (e errReader) Read() (trace.Ref, error) { return trace.Ref{}, e.err }

func TestHierarchyRunReportsProbe(t *testing.T) {
	hc := hierHC(256, 2048)
	hc.L1.Unified.VictimLines = 4
	h := mustHierarchy(t, hc)
	p := &hierProbe{}
	// A cyclic sweep over 17 lines through the fully-associative 16-line
	// L1 evicts, on every miss, exactly the line referenced next — so
	// after warm-up every access is a victim-buffer hit.
	refs := hierRefs(5000, 256)
	for i := 0; i < 2000; i++ {
		refs = append(refs, trace.Ref{Addr: uint64(i%17) * 16, Size: 4, Kind: trace.Read})
	}
	h.SetProbe(p, "hier", int64(len(refs)))
	if _, err := h.Run(trace.NewSliceReader(refs), 0); err != nil {
		t.Fatal(err)
	}
	ev := h.HierStats()
	if p.calls != 1 || p.stage != "hier" {
		t.Fatalf("HierarchyRun calls = %d stage %q", p.calls, p.stage)
	}
	if p.fetches != ev.Fetches || p.writes != ev.Writes {
		t.Errorf("probe saw %d/%d, stats say %d/%d", p.fetches, p.writes, ev.Fetches, ev.Writes)
	}
	if p.victimHits != h.Stats().VictimHits || p.victimHits == 0 {
		t.Errorf("probe victim hits = %d, stats %d", p.victimHits, h.Stats().VictimHits)
	}

	// A read error surfaces from Run and still emits the batched report.
	boom := errors.New("boom")
	h2 := mustHierarchy(t, hierHC(256, 2048))
	p2 := &hierProbe{}
	h2.SetProbe(p2, "hier", 0)
	if _, err := h2.Run(errReader{boom}, 0); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if p2.calls != 1 {
		t.Fatal("errored run must still report")
	}
}

func TestHierarchyRunMax(t *testing.T) {
	h := mustHierarchy(t, hierHC(256, 2048))
	refs := hierRefs(50, 256)
	if n, err := h.Run(trace.NewSliceReader(refs), 20); err != nil || n != 20 {
		t.Fatalf("Run(max=20) = %d, %v", n, err)
	}
}
