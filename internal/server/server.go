// Package server exposes the cache-evaluation engine as an HTTP JSON
// service: the batch drivers under internal/experiments become a long-lived
// process that serves, dedupes and cancels simulation work.
//
//	POST /v1/evaluate  — run one cache design against one workload
//	POST /v1/sweep     — run the §3.3-§3.5 grid over chosen mixes and sizes
//	GET  /v1/mixes     — list the workloads the server can simulate
//	GET  /v1/policies  — list the replacement and fetch policies by name
//	GET  /healthz      — liveness
//	GET  /metrics      — operational counters (expvar-backed JSON)
//
// Three properties make it serviceable under load:
//
//   - a bounded worker pool: at most MaxConcurrent simulations run at once,
//     the rest queue;
//   - memoization: results are cached in an LRU keyed by a canonical hash
//     of (design, workload, options), and concurrent identical requests
//     share one computation (singleflight);
//   - cancellation: every request carries a deadline; a simulation whose
//     last waiter has gone is cancelled mid-run via context propagation
//     through the experiment layer.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/jobs"
	"cacheeval/internal/model"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// Config tunes a Server. The zero value is production-ready.
type Config struct {
	// MaxBodyBytes bounds request bodies; default 1 MiB.
	MaxBodyBytes int64
	// MemoEntries bounds the LRU result cache; default 256 entries.
	// Negative disables memoization (singleflight dedup still applies).
	MemoEntries int
	// StreamEntries is ignored: simulations read the workload generator
	// directly and no stream is cached.
	//
	// Deprecated: kept only so existing configurations still compile.
	StreamEntries int
	// MaxConcurrent bounds simultaneously running simulations; default
	// GOMAXPROCS. Queued work still honours its deadline while waiting.
	MaxConcurrent int
	// SimWorkers is the intra-sweep parallelism (experiments.Options.Workers)
	// of each sweep request; default 1 so one sweep cannot monopolize the
	// pool — concurrency across requests comes from MaxConcurrent.
	SimWorkers int
	// DefaultTimeout applies to requests that set no timeout_ms; 0 means
	// no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxJobs bounds the async-job registry (POST /v1/jobs); default 64.
	// When every held job is live, job creation returns 503.
	MaxJobs int
	// JobTTL is how long a finished job's status and events stay fetchable
	// before eviction; default 10 minutes.
	JobTTL time.Duration
	// JobEventBuffer caps each job's replayable event buffer; default 4096
	// events. Past it the oldest events drop and late subscribers see a
	// gap marker instead.
	JobEventBuffer int
	// Logger receives the structured access log and simulation lifecycle
	// events, each line carrying the request's ID. Nil discards all logs
	// (the zero value stays quiet, matching the previous behaviour).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MemoEntries == 0 {
		c.MemoEntries = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 1
	}
	return c
}

// Server is the evaluation service. Create with New, mount via Handler,
// release background resources with Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *Metrics
	logger  *slog.Logger

	// Prometheus exposition (see prom.go). The func-backed families read
	// straight from metrics/state at scrape time; only the histograms and
	// the engine refs counter hold their own state.
	prom              *obs.Registry
	evalHist          *obs.Histogram
	sweepHist         *obs.Histogram
	engineRefs        *obs.Counter
	refsRateHist      *obs.Histogram
	causeCompulsory   *obs.Counter
	causeCapacity     *obs.Counter
	causeConflict     *obs.Counter
	hierL2Fetches     *obs.Counter
	hierL2FetchMisses *obs.Counter
	hierL2Writes      *obs.Counter
	hierL2WriteMisses *obs.Counter
	hierVictimHits    *obs.Counter
	httpInFlight      atomic.Int64

	jobs *jobs.Registry

	mu      sync.Mutex
	memo    *memoLRU
	flights map[string]*flight

	workers chan struct{}

	baseCtx   context.Context
	closeBase context.CancelFunc

	catalog  map[string]workload.Mix
	mixInfos []MixInfo
}

// MixInfo describes one servable workload.
type MixInfo struct {
	Name      string `json:"name"`
	Programs  int    `json:"programs"`
	Quantum   int    `json:"quantum"`
	TotalRefs int    `json:"total_refs"`
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: &Metrics{},
		logger:  logger,
		jobs: jobs.NewRegistry(jobs.Config{
			MaxJobs: cfg.MaxJobs, TTL: cfg.JobTTL, EventBuffer: cfg.JobEventBuffer,
		}),
		memo:      newMemoLRU(cfg.MemoEntries),
		flights:   make(map[string]*flight),
		workers:   make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:   base,
		closeBase: cancel,
	}
	s.buildProm()
	s.buildCatalog()
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/mixes", s.handleMixes)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Close cancels every in-flight computation. Call after draining the HTTP
// listener (http.Server.Shutdown) so active requests finish first.
func (s *Server) Close() { s.closeBase() }

// Handler returns the service's root handler. It wraps the API mux in the
// observability middleware: every request gets an ID (the client's
// X-Request-ID when syntactically valid, a fresh one otherwise), the ID is
// echoed back in the response headers and stamped onto a request-scoped
// logger, both travel down the context into the simulation layers, and the
// completed request is access-logged with its status and duration.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		s.httpInFlight.Add(1)
		defer s.httpInFlight.Add(-1)
		t0 := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(rid) {
			rid = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		logger := s.logger.With("request_id", rid)
		ctx := obs.WithLogger(obs.WithRequestID(r.Context(), rid), logger)
		sw := obs.NewStatusWriter(w)
		s.mux.ServeHTTP(sw, r.WithContext(ctx))
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"bytes", sw.Bytes(),
			"duration_ms", float64(time.Since(t0))/float64(time.Millisecond),
		)
	})
}

// Metrics exposes the server's counters, e.g. for expvar publication.
func (s *Server) Metrics() *Metrics { return s.metrics }

// buildCatalog indexes every workload the server can simulate by name: the
// corpus traces (and their LISPC/VAXIMA section expansions) as single-program
// mixes with their architecture's purge quantum, plus the paper's standard
// multiprogramming mixes.
func (s *Server) buildCatalog() {
	s.catalog = make(map[string]workload.Mix)
	add := func(m workload.Mix) {
		if _, ok := s.catalog[m.Name]; ok {
			return
		}
		s.catalog[m.Name] = m
		s.mixInfos = append(s.mixInfos, MixInfo{
			Name: m.Name, Programs: len(m.Specs),
			Quantum: m.Quantum, TotalRefs: m.TotalRefs(),
		})
	}
	asMix := func(spec workload.Spec) workload.Mix {
		return workload.Mix{
			Name:    spec.Name,
			Specs:   []workload.Spec{spec},
			Quantum: workload.Archs()[spec.Arch].PurgeInterval,
		}
	}
	for _, spec := range workload.All() {
		add(asMix(spec))
	}
	for _, spec := range workload.Units() {
		add(asMix(spec))
	}
	for _, m := range workload.StandardMixes() {
		add(m)
	}
	add(workload.M68000Mix())
	sort.Slice(s.mixInfos, func(i, j int) bool { return s.mixInfos[i].Name < s.mixInfos[j].Name })
}

// EvaluateRequest is the POST /v1/evaluate body. Design uses the library's
// SystemConfig field names verbatim (e.g. {"Unified":{"Size":16384,
// "LineSize":16},"PurgeInterval":20000}); an omitted design defaults to a
// unified 16K cache with 16-byte lines purged on the mix's quantum.
type EvaluateRequest struct {
	Design cache.SystemConfig `json:"design"`
	Mix    string             `json:"mix"`
	// Policy and Fetch name a replacement and fetch policy to apply to every
	// cache in the design (see GET /v1/policies), overriding whatever the
	// design's own Repl/Fetch fields say. Empty leaves the design untouched
	// (its zero values are LRU and demand fetch). Unknown names are a 400.
	Policy    string `json:"policy"`
	Fetch     string `json:"fetch"`
	RefLimit  int    `json:"ref_limit"`
	TimeoutMS int    `json:"timeout_ms"`
	// Victim adds a fully-associative victim buffer of this many lines
	// behind every cache in the design (Jouppi's organization); 0 means no
	// buffer. Folded into the design before keying, so "victim":4 and a
	// design with VictimLines set directly memoize identically.
	Victim int `json:"victim"`
	// L2 opts the evaluation into two-level simulation: the design becomes
	// the first level and every L1 miss (and dirty push) feeds this unified
	// second-level cache. The report then carries an L2 block with local
	// and global miss ratios.
	L2 *L2In `json:"l2"`
	// Trace opts into the per-stage timing breakdown. It cannot change the
	// simulation's result, so it is excluded from the memoization key; a
	// memoized answer returns the spans of the run that computed it.
	Trace bool `json:"trace"`
}

// L2In is the request form of a second-level cache: a unified demand-fetch
// LRU copy-back cache behind the L1. LineSize 0 inherits the L1's line
// size; Assoc 0 means fully associative, 1 direct mapped.
type L2In struct {
	Size     int `json:"size"`
	LineSize int `json:"line_size"`
	Assoc    int `json:"assoc"`
}

// config returns the cache configuration an L2 request block implies,
// inheriting the L1 design's line size when unset.
func (l *L2In) config(design cache.SystemConfig) cache.Config {
	line := l.LineSize
	if line == 0 {
		if design.Split {
			line = design.I.LineSize
		} else {
			line = design.Unified.LineSize
		}
	}
	return cache.Config{Size: l.Size, LineSize: line, Assoc: l.Assoc}
}

// spec converts an L2 request block to the core sweep form.
func (l *L2In) spec() *core.L2Spec {
	if l == nil {
		return nil
	}
	return &core.L2Spec{Size: l.Size, LineSize: l.LineSize, Assoc: l.Assoc}
}

// maxParallelWorkers bounds a sweep's requested worker count. Each worker
// runs one grid pass with its own tag stores, so letting a request name an
// arbitrary worker count would multiply goroutines and memory without
// bound.
const maxParallelWorkers = 64

// validateParallel checks a sweep's parallel field.
func validateParallel(workers int) *requestError {
	if workers < 0 {
		return &requestError{http.StatusBadRequest, "parallel must be >= 0"}
	}
	if workers > maxParallelWorkers {
		return &requestError{http.StatusBadRequest,
			"parallel exceeds the service limit of 64 workers"}
	}
	return nil
}

// evalPayload is the memoized portion of an evaluate response, and an
// evaluate job's "summary" event payload, so the async answer matches the
// synchronous one field for field (minus the per-request cached/shared/
// elapsed_ms envelope).
type evalPayload struct {
	Report core.Report `json:"report"`
}

// EvaluateResponse is the POST /v1/evaluate reply.
type EvaluateResponse struct {
	evalPayload
	simReply
}

// simReply is the per-request envelope a synchronous reply carries around
// its memoized payload.
type simReply struct {
	// Cached reports a memoization hit; Shared reports singleflight dedup
	// against a concurrent identical request.
	Cached    bool              `json:"cached"`
	Shared    bool              `json:"shared"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Trace     []obs.SpanSummary `json:"trace,omitempty"`
}

// simResult is a memo entry: a request's payload plus the spans of the run
// that computed it.
type simResult struct {
	Payload any
	Trace   []obs.SpanSummary
}

// simCall is one validated simulation request, prepared once and served by
// either front end: the synchronous endpoints (serve) and async jobs
// (runJob) run the same flight under the same memo key, so an async request
// and its synchronous twin share one memo entry and one flight.
type simCall struct {
	kind      string // "evaluate" or "sweep"
	key       string // memoization and singleflight key
	timeoutMS int
	trace     bool
	// compute runs the simulation on a flight context that carries the
	// caller's sink and trace, and returns the memoized payload. onPass,
	// when non-nil, receives each completed sweep grid pass.
	compute func(ctx context.Context, onPass func(experiments.PassResult)) (any, error)
	// reply wraps a payload in the synchronous endpoint's response.
	reply func(payload any, r simReply) any
}

// requestError is a validation failure plus the HTTP status it maps to.
type requestError struct {
	code int
	msg  string
}

func (e *requestError) Error() string { return e.msg }

// maxCacheBytes bounds the per-cache sizes the service will simulate (16 MiB,
// comfortably above the paper's 64 KB grid). Without it a single request
// could ask for a technically valid multi-gigabyte cache and exhaust memory
// building its tag store before the simulation even starts.
const maxCacheBytes = 16 << 20

// errCacheTooLarge is the rejection for an over-limit cache size.
var errCacheTooLarge = &requestError{
	http.StatusBadRequest, "cache size exceeds the 16 MiB service limit"}

// validateEvaluate resolves an evaluate request against the catalog and
// checks its parameters, returning the effective design (the documented
// default when the request omits one) and the resolved mix. It does no
// simulation work and writes no response, so fuzzing can drive it on
// arbitrary decoded bodies.
func (s *Server) validateEvaluate(req *EvaluateRequest) (cache.SystemConfig, workload.Mix, *requestError) {
	mix, ok := s.catalog[req.Mix]
	if !ok {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest, "unknown mix " + strconvQuote(req.Mix) + "; see GET /v1/mixes"}
	}
	if req.RefLimit < 0 {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest, "ref_limit must be >= 0"}
	}
	if req.Victim < 0 {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest, "victim must be >= 0"}
	}
	design := req.Design
	if design == (cache.SystemConfig{}) {
		design = cache.SystemConfig{
			Unified:       cache.Config{Size: 16384, LineSize: 16},
			PurgeInterval: mix.Quantum,
		}
	}
	// Fold the named policy overrides into the design before validation and
	// keying, so "policy":"arc" and a design with Repl set directly memoize
	// identically.
	if req.Policy != "" {
		repl, err := cache.ParseReplacement(req.Policy)
		if err != nil {
			return cache.SystemConfig{}, workload.Mix{}, &requestError{
				http.StatusBadRequest, "unknown policy " + strconvQuote(req.Policy) + "; see GET /v1/policies"}
		}
		if design.Split {
			design.I.Repl, design.D.Repl = repl, repl
		} else {
			design.Unified.Repl = repl
		}
	}
	if req.Fetch != "" {
		fetch, err := cache.ParseFetchPolicy(req.Fetch)
		if err != nil {
			return cache.SystemConfig{}, workload.Mix{}, &requestError{
				http.StatusBadRequest, "unknown fetch policy " + strconvQuote(req.Fetch) + "; see GET /v1/policies"}
		}
		if design.Split {
			design.I.Fetch, design.D.Fetch = fetch, fetch
		} else {
			design.Unified.Fetch = fetch
		}
	}
	// Fold the victim-buffer request into the design like the policy
	// overrides, so "victim":4 and VictimLines set directly key as one.
	if req.Victim > 0 {
		if design.Split {
			design.I.VictimLines, design.D.VictimLines = req.Victim, req.Victim
		} else {
			design.Unified.VictimLines = req.Victim
		}
	}
	for _, c := range []cache.Config{design.Unified, design.I, design.D} {
		if c.Size > maxCacheBytes {
			return cache.SystemConfig{}, workload.Mix{}, errCacheTooLarge
		}
	}
	if req.L2 != nil {
		if req.L2.Size > maxCacheBytes {
			return cache.SystemConfig{}, workload.Mix{}, errCacheTooLarge
		}
		hc := cache.HierarchyConfig{L1: design, L2: req.L2.config(design)}
		if err := hc.Validate(); err != nil {
			return cache.SystemConfig{}, workload.Mix{}, &requestError{
				http.StatusBadRequest, "invalid hierarchy: " + err.Error()}
		}
	} else if err := design.Validate(); err != nil {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest, "invalid design: " + err.Error()}
	}
	return design, mix, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	s.metrics.EvaluateRequests.Add(1)
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		s.metrics.EvaluateNs.Add(d.Nanoseconds())
		s.evalHist.Observe(d.Seconds())
	}()
	var req EvaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	call, verr := s.evaluateCall(&req)
	if verr != nil {
		s.error(w, verr.code, verr.msg)
		return
	}
	s.serve(w, r, call)
}

// evaluateCall validates an evaluate request and prepares its run. The key
// is computed from the validated, canonicalized form. L2 keys by its
// resolved cache config, so an L2 block that spells out the inherited line
// size memoizes with one that omits it — and a hierarchy request can never
// share an entry with a single-level request for the same L1 design.
// Evaluations read the mix's generator directly; no stream is held in
// memory.
func (s *Server) evaluateCall(req *EvaluateRequest) (*simCall, *requestError) {
	design, mix, verr := s.validateEvaluate(req)
	if verr != nil {
		return nil, verr
	}
	var l2cfg *cache.Config
	if req.L2 != nil {
		c := req.L2.config(design)
		l2cfg = &c
	}
	key, err := requestKey("evaluate", struct {
		Design   cache.SystemConfig
		Mix      string
		RefLimit int
		L2       *cache.Config
	}{design, mix.Name, req.RefLimit, l2cfg})
	if err != nil {
		return nil, &requestError{http.StatusInternalServerError, err.Error()}
	}
	return &simCall{
		kind: "evaluate", key: key, timeoutMS: req.TimeoutMS, trace: req.Trace,
		compute: func(ctx context.Context, _ func(experiments.PassResult)) (any, error) {
			obs.Logger(ctx).Info("evaluate: simulation start",
				"mix", mix.Name, "ref_limit", req.RefLimit)
			var p evalPayload
			var err error
			if l2cfg != nil {
				p.Report, err = core.EvaluateHierarchyContext(ctx,
					cache.HierarchyConfig{L1: design, L2: *l2cfg}, mix, req.RefLimit)
			} else {
				p.Report, err = core.EvaluateContext(ctx, design, mix, req.RefLimit)
			}
			return p, err
		},
		reply: func(p any, r simReply) any { return EvaluateResponse{p.(evalPayload), r} },
	}, nil
}

// SweepRequest is the POST /v1/sweep body. Empty mixes selects the paper's
// seventeen standard workload units; empty sizes selects the paper's
// 32B-64KB grid.
type SweepRequest struct {
	Mixes    []string `json:"mixes"`
	Sizes    []int    `json:"sizes"`
	LineSize int      `json:"line_size"`
	// Policy names the replacement policy every simulated cache uses (see
	// GET /v1/policies); empty means LRU, the paper's configuration. Non-LRU
	// policies break stack inclusion, so the engine registry runs them one
	// cache per size — expect such sweeps to cost proportionally more.
	Policy    string `json:"policy"`
	RefLimit  int    `json:"ref_limit"`
	TimeoutMS int    `json:"timeout_ms"`
	// Parallel raises the sweep's worker count — how many grid passes run
	// at once — to N when N exceeds the server's SimWorkers (0-64). It
	// cannot change the results, so it is excluded from the memoization
	// key: a "parallel" sweep and its serial twin share one entry.
	Parallel int `json:"parallel"`
	// Victim adds a fully-associative victim buffer of this many lines
	// behind every cache in the grid; 0 means none. Victim sweeps break
	// stack inclusion and run one cache per size.
	Victim int `json:"victim"`
	// L2 opts the whole grid into two-level simulation: every L1 size runs
	// in front of this second-level cache, and each variant then carries an
	// "l2" block with local and global miss ratios. The L2 must hold the
	// largest L1 in the grid (both caches of a split organization).
	L2 *L2In `json:"l2"`
	// Trace opts into the per-stage timing breakdown; like timeout_ms it is
	// excluded from the memoization key (see EvaluateRequest.Trace).
	Trace bool `json:"trace"`
}

// VariantOut summarizes one of a sweep cell's four simulations.
// VictimHits and L2 appear only for victim and two-level sweeps
// respectively; for two-level sweeps TrafficBytes is the L2's memory-side
// traffic, the hierarchy's true memory interface.
type VariantOut struct {
	MissRatio    float64       `json:"miss_ratio"`
	InstrMiss    float64       `json:"instr_miss"`
	DataMiss     float64       `json:"data_miss"`
	TrafficBytes uint64        `json:"traffic_bytes"`
	VictimHits   uint64        `json:"victim_hits,omitempty"`
	L2           *L2VariantOut `json:"l2,omitempty"`
}

// L2VariantOut is the second-level block of a two-level sweep variant: the
// L2's event counts over the L1-filtered stream and the hierarchy miss
// ratios — local (over the stream the L2 actually saw) and global (the
// fraction of processor references that went all the way to memory).
type L2VariantOut struct {
	Fetches         uint64  `json:"fetches"`
	FetchMisses     uint64  `json:"fetch_misses"`
	Writes          uint64  `json:"writes"`
	WriteMisses     uint64  `json:"write_misses"`
	LocalMissRatio  float64 `json:"local_miss_ratio"`
	FetchMissRatio  float64 `json:"fetch_miss_ratio"`
	GlobalMissRatio float64 `json:"global_miss_ratio"`
}

// SweepCellOut summarizes one (mix, size) grid cell.
type SweepCellOut struct {
	SplitDemand     VariantOut `json:"split_demand"`
	SplitPrefetch   VariantOut `json:"split_prefetch"`
	UnifiedDemand   VariantOut `json:"unified_demand"`
	UnifiedPrefetch VariantOut `json:"unified_prefetch"`
}

// sweepPayload is the memoized portion of a sweep response.
type sweepPayload struct {
	Sizes []int            `json:"sizes"`
	Mixes []string         `json:"mixes"`
	Cells [][]SweepCellOut `json:"cells"`
}

// SweepResponse is the POST /v1/sweep reply; Cells is indexed [mix][size].
type SweepResponse struct {
	sweepPayload
	simReply
}

// validateSweep resolves a sweep request: every named mix must exist and
// appear once (an empty list selects the paper's standard mixes and
// records their names back into the request, which downstream keying
// relies on), the policy name must parse, the limits must be non-negative,
// and every per-size configuration must pass core.SweepSpec.Validate. Like
// validateEvaluate it is pure request validation, shared with the fuzz
// targets.
func (s *Server) validateSweep(req *SweepRequest) ([]workload.Mix, cache.Replacement, *requestError) {
	repl := cache.LRU
	if req.Policy != "" {
		r, err := cache.ParseReplacement(req.Policy)
		if err != nil {
			return nil, 0, &requestError{
				http.StatusBadRequest, "unknown policy " + strconvQuote(req.Policy) + "; see GET /v1/policies"}
		}
		repl = r
	}
	var mixes []workload.Mix
	if len(req.Mixes) == 0 {
		mixes = append(workload.StandardMixes(), workload.M68000Mix())
		for _, m := range mixes {
			req.Mixes = append(req.Mixes, m.Name)
		}
	} else {
		for i, name := range req.Mixes {
			m, ok := s.catalog[name]
			if !ok {
				return nil, 0, &requestError{
					http.StatusBadRequest, "unknown mix " + strconvQuote(name) + "; see GET /v1/mixes"}
			}
			if slices.Contains(req.Mixes[:i], name) {
				return nil, 0, &requestError{
					http.StatusBadRequest, "mix " + strconvQuote(name) + " is listed more than once"}
			}
			mixes = append(mixes, m)
		}
	}
	for _, size := range req.Sizes {
		if size <= 0 {
			return nil, 0, &requestError{http.StatusBadRequest, "sizes must be positive"}
		}
		if size > maxCacheBytes {
			return nil, 0, errCacheTooLarge
		}
	}
	if req.RefLimit < 0 || req.LineSize < 0 {
		return nil, 0, &requestError{http.StatusBadRequest, "ref_limit and line_size must be >= 0"}
	}
	if req.LineSize > maxCacheBytes {
		return nil, 0, errCacheTooLarge
	}
	if verr := validateParallel(req.Parallel); verr != nil {
		return nil, 0, verr
	}
	if req.L2 != nil && req.L2.Size > maxCacheBytes {
		return nil, 0, errCacheTooLarge
	}
	// Validate the per-size configs the grid will actually build by running
	// the core spec check on the split organization (the stricter one: the
	// L2 must hold both caches), with the documented defaults filled in.
	// This turns a size that is not a power of two, a line longer than a
	// cache, an inverted hierarchy or an out-of-range victim buffer into a
	// structured 400 before any stream is generated.
	sizes := req.Sizes
	if len(sizes) == 0 {
		sizes = model.CacheSizes
	}
	line := req.LineSize
	if line == 0 {
		line = 16
	}
	spec := core.SweepSpec{Sizes: sizes, LineSize: line, Split: true,
		Repl: repl, Victim: req.Victim, L2: req.L2.spec()}
	if err := spec.Validate(); err != nil {
		return nil, 0, &requestError{http.StatusBadRequest,
			"invalid sweep: " + err.Error()}
	}
	return mixes, repl, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.SweepRequests.Add(1)
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		s.metrics.SweepNs.Add(d.Nanoseconds())
		s.sweepHist.Observe(d.Seconds())
	}()
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	call, verr := s.sweepCall(&req)
	if verr != nil {
		s.error(w, verr.code, verr.msg)
		return
	}
	s.serve(w, r, call)
}

// sweepCall validates a sweep request and prepares its run. The key carries
// the parsed policy's canonical name, so the "slru", "segmented-lru" and
// "2q" spellings memoize as one entry. The worker count ("parallel") is
// left out: it cannot change the cells.
func (s *Server) sweepCall(req *SweepRequest) (*simCall, *requestError) {
	mixes, repl, verr := s.validateSweep(req)
	if verr != nil {
		return nil, verr
	}
	key, err := requestKey("sweep", struct {
		Mixes    []string
		Sizes    []int
		LineSize int
		Policy   string
		RefLimit int
		Victim   int
		L2       *core.L2Spec
	}{req.Mixes, req.Sizes, req.LineSize, repl.String(), req.RefLimit, req.Victim, req.L2.spec()})
	if err != nil {
		return nil, &requestError{http.StatusInternalServerError, err.Error()}
	}
	return &simCall{
		kind: "sweep", key: key, timeoutMS: req.TimeoutMS, trace: req.Trace,
		compute: func(ctx context.Context, onPass func(experiments.PassResult)) (any, error) {
			opts := experiments.Options{
				Sizes: req.Sizes, LineSize: req.LineSize, RefLimit: req.RefLimit,
				Workers: max(s.cfg.SimWorkers, req.Parallel),
				Repl:    repl, Victim: req.Victim, L2: req.L2.spec(),
				Sink: obs.SinkFrom(ctx), OnPass: onPass,
			}
			obs.Logger(ctx).Info("sweep: simulation start",
				"mixes", len(mixes), "sizes", len(opts.Sizes), "ref_limit", req.RefLimit)
			res, err := experiments.SweepMixesContext(ctx, opts, mixes)
			if err != nil {
				return nil, err
			}
			sp := obs.StartSpan(ctx, "assemble")
			defer sp.End()
			return summarizeSweep(res), nil
		},
		reply: func(p any, r simReply) any { return SweepResponse{p.(sweepPayload), r} },
	}, nil
}

// summarizeSweep flattens a SweepResult into its JSON summary.
func summarizeSweep(res *experiments.SweepResult) sweepPayload {
	out := sweepPayload{Sizes: res.Sizes}
	for _, m := range res.Mixes {
		out.Mixes = append(out.Mixes, m.Name)
	}
	out.Cells = make([][]SweepCellOut, len(res.Cells))
	for mi, row := range res.Cells {
		out.Cells[mi] = make([]SweepCellOut, len(row))
		for si, cell := range row {
			out.Cells[mi][si] = SweepCellOut{
				SplitDemand:     variantOut(cell.SplitDemand, true),
				SplitPrefetch:   variantOut(cell.SplitPrefetch, true),
				UnifiedDemand:   variantOut(cell.UnifiedDemand, false),
				UnifiedPrefetch: variantOut(cell.UnifiedPrefetch, false),
			}
		}
	}
	return out
}

// variantOut converts one simulation's outputs to the response form shared
// by sweep cells and job cell events.
func variantOut(o experiments.SimOut, split bool) VariantOut {
	traffic := o.U.MemoryTraffic()
	victim := o.U.VictimHits
	if split {
		traffic = o.I.MemoryTraffic() + o.D.MemoryTraffic()
		victim = o.I.VictimHits + o.D.VictimHits
	}
	v := VariantOut{
		MissRatio:    o.Ref.MissRatio(),
		InstrMiss:    o.Ref.KindMissRatio(trace.IFetch),
		DataMiss:     o.Ref.DataMissRatio(),
		TrafficBytes: traffic,
		VictimHits:   victim,
	}
	if o.H != (cache.HierResult{}) {
		// A two-level variant's memory interface is the L2's outer side.
		v.TrafficBytes = o.H.U.MemoryTraffic()
		var global float64
		if n := o.Ref.TotalRefs(); n > 0 {
			global = float64(o.H.Ev.FetchMisses) / float64(n)
		}
		v.L2 = &L2VariantOut{
			Fetches:         o.H.Ev.Fetches,
			FetchMisses:     o.H.Ev.FetchMisses,
			Writes:          o.H.Ev.Writes,
			WriteMisses:     o.H.Ev.WriteMisses,
			LocalMissRatio:  o.H.Ev.LocalMissRatio(),
			FetchMissRatio:  o.H.Ev.FetchMissRatio(),
			GlobalMissRatio: global,
		}
	}
	return v
}

func (s *Server) handleMixes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Mixes []MixInfo `json:"mixes"`
	}{s.mixInfos})
}

// PolicyInfo describes one replacement policy the service accepts.
type PolicyInfo struct {
	// Name is the canonical request spelling for the policy / fetch fields.
	Name string `json:"name"`
	// Aliases are additional accepted spellings.
	Aliases []string `json:"aliases,omitempty"`
	// StackInclusion reports whether multi-size sweeps under this policy
	// (with demand fetch) satisfy Mattson stack inclusion and therefore run
	// on the one-pass engines; false means one cache per size.
	StackInclusion bool `json:"stack_inclusion"`
}

// handlePolicies serves GET /v1/policies: the replacement and fetch
// policies the evaluate/sweep endpoints accept, by name.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	aliases := map[cache.Replacement][]string{
		cache.SegmentedLRU: {"segmented-lru", "2q"},
	}
	fetchAliases := map[cache.FetchPolicy][]string{
		cache.PrefetchAlways: {"always"},
		cache.PrefetchOnMiss: {"onmiss"},
		cache.TaggedPrefetch: {"tagged"},
	}
	var repls, fetches []PolicyInfo
	for _, repl := range cache.Replacements() {
		repls = append(repls, PolicyInfo{
			Name:           strings.ToLower(repl.String()),
			Aliases:        aliases[repl],
			StackInclusion: repl == cache.LRU,
		})
	}
	for _, fetch := range cache.FetchPolicies() {
		fetches = append(fetches, PolicyInfo{
			Name:           fetch.String(),
			Aliases:        fetchAliases[fetch],
			StackInclusion: fetch == cache.DemandFetch,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Policies      []PolicyInfo `json:"policies"`
		FetchPolicies []PolicyInfo `json:"fetch_policies"`
	}{repls, fetches})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Mixes  int    `json:"mixes"`
	}{"ok", len(s.mixInfos)})
}

// serve runs a prepared call for a synchronous endpoint under the request's
// deadline and writes the reply.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, call *simCall) {
	ctx, cancel := s.deadline(r.Context(), call.timeoutMS)
	defer cancel()
	start := time.Now()
	val, hit, shared, err := s.do(ctx, call.key, s.flight(ctx, call, simSink{s}, nil, nil))
	if err != nil {
		s.simError(w, err)
		return
	}
	s.countOutcome(hit, shared)
	res := val.(simResult)
	reply := simReply{Cached: hit, Shared: shared,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if call.trace {
		reply.Trace = res.Trace
	}
	writeJSON(w, http.StatusOK, call.reply(res.Payload, reply))
}

// flight returns the singleflight body that runs call for one caller.
// Flights descend from the server's base context (they must outlive any one
// waiter), so the caller's request ID and logger (from rctx) and its engine
// sink are grafted on; when several callers share one flight the spawning
// caller's identity and sink label the computation. onStart runs once the
// flight holds a worker slot, before the simulation; onPass receives each
// completed sweep grid pass. Either may be nil.
func (s *Server) flight(rctx context.Context, call *simCall, sink obs.Sink,
	onStart func(), onPass func(experiments.PassResult)) func(context.Context) (any, error) {
	return func(fctx context.Context) (any, error) {
		if onStart != nil {
			onStart()
		}
		fctx = obs.WithRequestID(fctx, obs.RequestID(rctx))
		fctx = obs.WithLogger(fctx, obs.Logger(rctx))
		fctx, tr := obs.NewTrace(obs.WithSink(fctx, sink))
		s.metrics.SimRuns.Add(1)
		t0 := time.Now()
		defer func() { s.metrics.SimSeconds.Add(time.Since(t0).Seconds()) }()
		payload, err := call.compute(fctx, onPass)
		if err != nil {
			return nil, err
		}
		return simResult{Payload: payload, Trace: tr.Summary()}, nil
	}
}

// deadline derives a run's working context from parent — the client's
// request for synchronous calls, the server's base context for jobs, which
// must outlive the creating request — plus the requested (or the server's
// default) timeout.
func (s *Server) deadline(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// countOutcome updates the memoization counters for a successful request.
func (s *Server) countOutcome(hit, shared bool) {
	if hit {
		s.metrics.MemoHits.Add(1)
		return
	}
	s.metrics.MemoMisses.Add(1)
	if shared {
		s.metrics.FlightJoins.Add(1)
	}
}

// decode parses a JSON request body under the size limit, writing the error
// response itself when it reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.error(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
			return false
		}
		s.error(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// simError maps a simulation failure to a status: deadline/cancellation
// becomes 504, anything else 500 (designs and mixes were validated before
// the simulation started).
func (s *Server) simError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.metrics.Timeouts.Add(1)
		s.error(w, http.StatusGatewayTimeout, "simulation deadline exceeded")
		return
	}
	s.error(w, http.StatusInternalServerError, "simulation failed: "+err.Error())
}

// error writes a JSON error response and counts it.
func (s *Server) error(w http.ResponseWriter, code int, msg string) {
	s.metrics.Errors.Add(1)
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// strconvQuote quotes a user-supplied name for error messages.
func strconvQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
