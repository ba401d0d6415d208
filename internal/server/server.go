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
	"math"
	"net/http"
	"runtime"
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
	sampledRuns       *obs.Counter
	sampledFallback   *obs.Counter
	sampledRounds     *obs.Counter
	sampledRelErr     *obs.Histogram
	sampledVsBudget   *obs.Histogram
	sampledFraction   *obs.Histogram
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
	// Mode selects exact simulation ("", "exact") or interval-sampled
	// simulation with a confidence interval ("sampled"). Sampled mode
	// requires ErrorBudget; results carry a miss-ratio CI and sampling
	// metadata, and memoize separately from exact results.
	Mode string `json:"mode"`
	// ErrorBudget is the target relative CI half-width for sampled mode
	// (0.02 = ±2%); it must be in (0, 1) and is rejected outside sampled
	// mode. When sampling cannot meet it the server transparently falls
	// back to exact simulation and says so in the response.
	ErrorBudget float64 `json:"error_budget"`
	// Victim adds a fully-associative victim buffer of this many lines
	// behind every cache in the design (Jouppi's organization); 0 means no
	// buffer. Folded into the design before keying, so "victim":4 and a
	// design with VictimLines set directly memoize identically. Rejected
	// when combined with "mode":"sampled".
	Victim int `json:"victim"`
	// L2 opts the evaluation into two-level simulation: the design becomes
	// the first level and every L1 miss (and dirty push) feeds this unified
	// second-level cache. The report then carries an L2 block with local
	// and global miss ratios. Rejected when combined with "mode":"sampled":
	// the sampled engine is not sound across levels.
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

// MissCIOut is a miss-ratio confidence interval in responses.
type MissCIOut struct {
	Level float64 `json:"level"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	// Windows is the number of full sampled windows behind the interval.
	Windows int `json:"windows"`
}

// SampledOut reports how a sampled run went: what was asked, what was
// achieved, and whether the server fell back to exact simulation.
type SampledOut struct {
	ErrorBudget      float64 `json:"error_budget"`
	Confidence       float64 `json:"confidence"`
	AchievedRelError float64 `json:"achieved_rel_error"`
	SampledFraction  float64 `json:"sampled_fraction"`
	Windows          int     `json:"windows"`
	Rounds           int     `json:"rounds"`
	FellBack         bool    `json:"fell_back"`
	FallbackReason   string  `json:"fallback_reason,omitempty"`
}

// sampledOut converts the core metadata to its response form.
func sampledOut(info *core.SampledInfo) *SampledOut {
	if info == nil {
		return nil
	}
	return &SampledOut{
		ErrorBudget:      info.ErrorBudget,
		Confidence:       info.Confidence,
		AchievedRelError: info.AchievedRelError,
		SampledFraction:  info.SampledFraction,
		Windows:          info.Windows,
		Rounds:           info.Rounds,
		FellBack:         info.FellBack,
		FallbackReason:   info.FallbackReason,
	}
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

// missCIOut converts a cache-layer CI to its response form.
func missCIOut(ci *cache.MissCI) *MissCIOut {
	if ci == nil {
		return nil
	}
	return &MissCIOut{Level: ci.Level, Lo: ci.Lo, Hi: ci.Hi, Windows: ci.Windows}
}

// evalPayload is the memoized portion of an evaluate response, and an
// evaluate job's "summary" event payload, so the async answer matches the
// synchronous one field for field (minus the per-request cached/shared/
// elapsed_ms envelope). MissRatioCI and Sampled appear only for
// sampled-mode requests (and the CI only when sampling succeeded — a
// fallback's results are exact and need no interval).
type evalPayload struct {
	Report      core.Report `json:"report"`
	MissRatioCI *MissCIOut  `json:"miss_ratio_ci,omitempty"`
	Sampled     *SampledOut `json:"sampled,omitempty"`
}

// EvaluateResponse is the POST /v1/evaluate reply.
type EvaluateResponse struct {
	evalPayload
	// Cached reports a memoization hit; Shared reports singleflight dedup
	// against a concurrent identical request.
	Cached    bool              `json:"cached"`
	Shared    bool              `json:"shared"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Trace     []obs.SpanSummary `json:"trace,omitempty"`
}

// evalMemo is the memoized portion of an evaluate response plus the
// producing run's spans.
type evalMemo struct {
	Payload evalPayload
	Trace   []obs.SpanSummary
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

// validateMode checks the (mode, error_budget) pair shared by both
// endpoints and returns the canonical mode name ("exact" or "sampled") for
// memoization keying — sampled results must never be served from
// exact-mode memo entries or vice versa, so the canonical mode and the
// budget are part of every result key.
func validateMode(mode string, budget float64) (string, *requestError) {
	switch mode {
	case "", "exact":
		if budget != 0 {
			return "", &requestError{http.StatusBadRequest,
				`error_budget requires "mode":"sampled"`}
		}
		return "exact", nil
	case "sampled":
		if math.IsNaN(budget) || budget <= 0 || budget >= 1 {
			return "", &requestError{http.StatusBadRequest,
				`"mode":"sampled" requires error_budget in (0, 1), e.g. 0.02`}
		}
		return "sampled", nil
	default:
		return "", &requestError{http.StatusBadRequest,
			"unknown mode " + strconvQuote(mode) + `; use "exact" or "sampled"`}
	}
}

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
	mode, verr := validateMode(req.Mode, req.ErrorBudget)
	if verr != nil {
		return cache.SystemConfig{}, workload.Mix{}, verr
	}
	req.Mode = mode // canonical spelling, relied on by downstream keying
	if req.Victim < 0 {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest, "victim must be >= 0"}
	}
	if (req.Victim > 0 || req.L2 != nil) && req.Mode == "sampled" {
		return cache.SystemConfig{}, workload.Mix{}, &requestError{
			http.StatusBadRequest,
			`victim and l2 are mutually exclusive with "mode":"sampled"`}
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
	} else if _, err := cache.NewSystem(design); err != nil {
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
	design, mix, verr := s.validateEvaluate(&req)
	if verr != nil {
		s.error(w, verr.code, verr.msg)
		return
	}
	key, l2cfg, err := evalRequestKey(&req, design, mix.Name)
	if err != nil {
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	val, hit, shared, err := s.do(ctx, key, func(fctx context.Context) (any, error) {
		return s.evalFlight(&req, design, mix, l2cfg)(s.flightCtx(fctx, ctx))
	})
	if err != nil {
		s.simError(w, err)
		return
	}
	s.countOutcome(hit, shared)
	memo := val.(evalMemo)
	resp := EvaluateResponse{
		evalPayload: memo.Payload, Cached: hit, Shared: shared,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.Trace {
		resp.Trace = memo.Trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// evalRequestKey computes an evaluate request's memoization key from its
// validated, canonicalized form, plus the resolved L2 config (nil for
// single-level). Async jobs (POST /v1/jobs) compute the same key, so an
// async evaluate and its synchronous twin share one memo entry and one
// flight. L2 keys by its resolved cache config, so an L2 block that spells
// out the inherited line size memoizes with one that omits it — and a
// hierarchy request can never share an entry with a single-level request
// for the same L1 design.
func evalRequestKey(req *EvaluateRequest, design cache.SystemConfig, mixName string) (string, *cache.Config, error) {
	var l2cfg *cache.Config
	if req.L2 != nil {
		c := req.L2.config(design)
		l2cfg = &c
	}
	key, err := requestKey("evaluate", struct {
		Design      cache.SystemConfig
		Mix         string
		RefLimit    int
		Mode        string
		ErrorBudget float64
		L2          *cache.Config
	}{design, mixName, req.RefLimit, req.Mode, req.ErrorBudget, l2cfg})
	return key, l2cfg, err
}

// evalFlight returns the flight body shared by the synchronous handler and
// the async job runner: everything from trace setup to the mode dispatch.
// The caller decorates the flight context first (request identity and
// sink — flightCtx for synchronous requests, jobFlightCtx for jobs). Exact
// evaluations read the mix's generator directly; only the sampled engine
// needs the stream in memory.
func (s *Server) evalFlight(req *EvaluateRequest, design cache.SystemConfig, mix workload.Mix, l2cfg *cache.Config) func(context.Context) (any, error) {
	return func(fctx context.Context) (any, error) {
		fctx, tr := obs.NewTrace(fctx)
		return s.timedSim(func() (any, error) {
			obs.Logger(fctx).Info("evaluate: simulation start",
				"mix", mix.Name, "ref_limit", req.RefLimit)
			var p evalPayload
			var err error
			switch {
			case req.Mode == "sampled":
				p, err = evalSampled(fctx, req, design, mix)
			case l2cfg != nil:
				p.Report, err = core.EvaluateHierarchyContext(fctx,
					cache.HierarchyConfig{L1: design, L2: *l2cfg}, mix, req.RefLimit)
			default:
				p.Report, err = core.EvaluateContext(fctx, design, mix, req.RefLimit)
			}
			if err != nil {
				return nil, err
			}
			return evalMemo{Payload: p, Trace: tr.Summary()}, nil
		})
	}
}

// evalSampled runs a sampled evaluation. The sampled engine may read its
// stream twice (an exact fallback re-runs it), so the request materializes
// the mix, ref_limit capping the total interleaved stream, and drops it
// when the run ends.
func evalSampled(ctx context.Context, req *EvaluateRequest, design cache.SystemConfig, mix workload.Mix) (evalPayload, error) {
	sp := obs.StartSpan(ctx, "materialize:"+mix.Name)
	rd, err := mix.Open()
	if err != nil {
		sp.End()
		return evalPayload{}, err
	}
	hint := mix.TotalRefs()
	if req.RefLimit > 0 {
		rd = trace.NewLimitReader(rd, req.RefLimit)
		hint = min(hint, req.RefLimit)
	}
	refs, err := trace.Collect(trace.NewContextReader(ctx, rd), 0, hint)
	sp.AddRefs(int64(len(refs)))
	sp.End()
	if err != nil {
		return evalPayload{}, err
	}
	rep, ci, info, err := core.EvaluateSampledRefsContext(ctx, design, mix.Name, refs,
		&core.SampledOptions{ErrorBudget: req.ErrorBudget})
	return evalPayload{Report: rep, MissRatioCI: missCIOut(ci), Sampled: sampledOut(info)}, err
}

// flightCtx grafts the requesting caller's observability identity — request
// ID, request-scoped logger — plus the server's engine sink onto a flight's
// context. Flights descend from the server's base context (they must outlive
// any one waiter), so the request-derived values do not come along for free;
// when several requests share one flight the spawning caller's identity
// labels the computation.
func (s *Server) flightCtx(fctx, rctx context.Context) context.Context {
	fctx = obs.WithRequestID(fctx, obs.RequestID(rctx))
	fctx = obs.WithLogger(fctx, obs.Logger(rctx))
	return obs.WithSink(fctx, simSink{s})
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
	// Mode and ErrorBudget opt the whole grid into interval-sampled
	// simulation; see EvaluateRequest. Every variant then carries a
	// miss-ratio CI and the response lists per-pass sampling metadata.
	Mode        string  `json:"mode"`
	ErrorBudget float64 `json:"error_budget"`
	// Parallel raises the sweep's worker count — how many grid passes run
	// at once — to N when N exceeds the server's SimWorkers (0-64). It
	// cannot change the results, so it is excluded from the memoization
	// key: a "parallel" sweep and its serial twin share one entry.
	Parallel int `json:"parallel"`
	// Victim adds a fully-associative victim buffer of this many lines
	// behind every cache in the grid; 0 means none. Victim sweeps break
	// stack inclusion and run one cache per size. Rejected when combined
	// with "mode":"sampled".
	Victim int `json:"victim"`
	// L2 opts the whole grid into two-level simulation: every L1 size runs
	// in front of this second-level cache, and each variant then carries an
	// "l2" block with local and global miss ratios. The L2 must hold the
	// largest L1 in the grid (both caches of a split organization).
	// Rejected when combined with "mode":"sampled".
	L2 *L2In `json:"l2"`
	// Trace opts into the per-stage timing breakdown; like timeout_ms it is
	// excluded from the memoization key (see EvaluateRequest.Trace).
	Trace bool `json:"trace"`
}

// VariantOut summarizes one of a sweep cell's four simulations.
// MissRatioCI appears only for sampled-mode sweeps whose pass met the
// budget by sampling (a fallen-back pass is exact). VictimHits and L2
// appear only for victim and two-level sweeps respectively; for two-level
// sweeps TrafficBytes is the L2's memory-side traffic, the hierarchy's
// true memory interface.
type VariantOut struct {
	MissRatio    float64       `json:"miss_ratio"`
	InstrMiss    float64       `json:"instr_miss"`
	DataMiss     float64       `json:"data_miss"`
	TrafficBytes uint64        `json:"traffic_bytes"`
	MissRatioCI  *MissCIOut    `json:"miss_ratio_ci,omitempty"`
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

// SampledPassOut is SampledOut for one sweep grid pass, identifying which
// (mix, organization, fetch policy) job it describes.
type SampledPassOut struct {
	Mix      string `json:"mix"`
	Split    bool   `json:"split"`
	Prefetch bool   `json:"prefetch"`
	SampledOut
}

// sweepPayload is the memoized portion of a sweep response. Mode is the
// canonical request mode ("exact" or "sampled"); Sampled lists per-pass
// sampling metadata for sampled sweeps.
type sweepPayload struct {
	Sizes   []int            `json:"sizes"`
	Mixes   []string         `json:"mixes"`
	Mode    string           `json:"mode"`
	Cells   [][]SweepCellOut `json:"cells"`
	Sampled []SampledPassOut `json:"sampled,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply; Cells is indexed [mix][size].
type SweepResponse struct {
	sweepPayload
	Cached    bool              `json:"cached"`
	Shared    bool              `json:"shared"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Trace     []obs.SpanSummary `json:"trace,omitempty"`
}

// sweepMemo is the memoized portion of a sweep response plus the producing
// run's spans.
type sweepMemo struct {
	Payload sweepPayload
	Trace   []obs.SpanSummary
}

// validateSweep resolves a sweep request: every named mix must exist (an
// empty list selects the paper's standard mixes and records their names back
// into the request, which downstream keying relies on), the policy name must
// parse, sizes must be positive, and the limits non-negative. Like
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
		for _, name := range req.Mixes {
			m, ok := s.catalog[name]
			if !ok {
				return nil, 0, &requestError{
					http.StatusBadRequest, "unknown mix " + strconvQuote(name) + "; see GET /v1/mixes"}
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
	mode, verr := validateMode(req.Mode, req.ErrorBudget)
	if verr != nil {
		return nil, 0, verr
	}
	req.Mode = mode // canonical spelling, relied on by downstream keying
	if verr := validateParallel(req.Parallel); verr != nil {
		return nil, 0, verr
	}
	if req.Victim != 0 || req.L2 != nil {
		if req.Mode == "sampled" {
			return nil, 0, &requestError{http.StatusBadRequest,
				`victim and l2 are mutually exclusive with "mode":"sampled"`}
		}
		if req.L2 != nil && req.L2.Size > maxCacheBytes {
			return nil, 0, errCacheTooLarge
		}
		// Validate the per-size configs the grid will actually build by
		// running the core spec check on the split organization (the
		// stricter one: the L2 must hold both caches), with the documented
		// defaults filled in. This turns an inverted hierarchy or an
		// out-of-range victim buffer into a structured 400 instead of a
		// mid-simulation 500.
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
	mixes, repl, verr := s.validateSweep(&req)
	if verr != nil {
		s.error(w, verr.code, verr.msg)
		return
	}
	opts := s.sweepOptions(&req, repl)
	opts.Sink = simSink{s}
	key, err := sweepRequestKey(&req, repl)
	if err != nil {
		s.error(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	val, hit, shared, err := s.do(ctx, key, func(fctx context.Context) (any, error) {
		return s.sweepFlight(&req, mixes, opts)(s.flightCtx(fctx, ctx))
	})
	if err != nil {
		s.simError(w, err)
		return
	}
	s.countOutcome(hit, shared)
	memo := val.(sweepMemo)
	resp := SweepResponse{
		sweepPayload: memo.Payload, Cached: hit, Shared: shared,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if req.Trace {
		resp.Trace = memo.Trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepOptions builds the experiment options a validated sweep request
// implies, minus the observers (Sink, OnPass) which differ between the
// synchronous handler and the async job runner.
func (s *Server) sweepOptions(req *SweepRequest, repl cache.Replacement) experiments.Options {
	opts := experiments.Options{
		Sizes: req.Sizes, LineSize: req.LineSize,
		RefLimit: req.RefLimit, Workers: s.cfg.SimWorkers,
		Repl: repl, Victim: req.Victim, L2: req.L2.spec(),
	}
	if req.Mode == "sampled" {
		opts.Sampled = &core.SampledOptions{ErrorBudget: req.ErrorBudget}
	}
	opts.Workers = max(opts.Workers, req.Parallel)
	return opts
}

// sweepRequestKey computes a sweep request's memoization key from its
// validated, canonicalized form. The key carries the parsed policy's
// canonical name, so the "slru", "segmented-lru" and "2q" spellings memoize
// as one entry. Mode and budget isolate sampled results from exact ones.
// The worker count ("parallel") is left out: it cannot change the cells.
// Async jobs compute the same key, so an async sweep and its synchronous
// twin share one memo entry and one flight.
func sweepRequestKey(req *SweepRequest, repl cache.Replacement) (string, error) {
	return requestKey("sweep", struct {
		Mixes       []string
		Sizes       []int
		LineSize    int
		Policy      string
		RefLimit    int
		Mode        string
		ErrorBudget float64
		Victim      int
		L2          *core.L2Spec
	}{req.Mixes, req.Sizes, req.LineSize, repl.String(), req.RefLimit, req.Mode, req.ErrorBudget,
		req.Victim, req.L2.spec()})
}

// sweepFlight returns the flight body shared by the synchronous handler
// and the async job runner; the caller decorates the flight context first.
func (s *Server) sweepFlight(req *SweepRequest, mixes []workload.Mix, opts experiments.Options) func(context.Context) (any, error) {
	return func(fctx context.Context) (any, error) {
		fctx, tr := obs.NewTrace(fctx)
		return s.timedSim(func() (any, error) {
			obs.Logger(fctx).Info("sweep: simulation start",
				"mixes", len(mixes), "sizes", len(opts.Sizes), "ref_limit", req.RefLimit)
			res, err := experiments.SweepMixesContext(fctx, opts, mixes)
			if err != nil {
				return nil, err
			}
			sp := obs.StartSpan(fctx, "assemble")
			payload := summarizeSweep(res, req.Mode)
			sp.End()
			return sweepMemo{Payload: payload, Trace: tr.Summary()}, nil
		})
	}
}

// summarizeSweep flattens a SweepResult into its JSON summary.
func summarizeSweep(res *experiments.SweepResult, mode string) sweepPayload {
	out := sweepPayload{Sizes: res.Sizes, Mode: mode}
	for _, m := range res.Mixes {
		out.Mixes = append(out.Mixes, m.Name)
	}
	for _, p := range res.Sampled {
		out.Sampled = append(out.Sampled, SampledPassOut{
			Mix: p.Mix, Split: p.Split, Prefetch: p.Prefetch,
			SampledOut: *sampledOut(&p.Info),
		})
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
		MissRatioCI:  missCIOut(o.CI),
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

// requestCtx derives the request's working context: the client disconnect
// context plus the request's (or server's default) deadline.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// timedSim wraps one simulation execution with the run counters.
func (s *Server) timedSim(fn func() (any, error)) (any, error) {
	s.metrics.SimRuns.Add(1)
	t0 := time.Now()
	defer func() { s.metrics.SimSeconds.Add(time.Since(t0).Seconds()) }()
	return fn()
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
