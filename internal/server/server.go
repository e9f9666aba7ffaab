package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/montecarlo"
	"tsperr/internal/pool"
)

// AnalyzeFunc runs one estimation. The daemon wires its harness engine's
// Analyze; tests substitute fakes. It must honor ctx
// cancellation — that is how client disconnects and shutdown reach the
// pipeline.
type AnalyzeFunc func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error)

// AnalyzeAtFunc runs one estimation at an explicit operating point: a
// (voltage, temperature) condition plus a frequency ratio (0 = the design's
// working ratio). The daemon wires its harness engine's AnalyzeAt; tests
// substitute fakes.
type AnalyzeAtFunc func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error)

// Config assembles a Server. Zero fields select the documented defaults.
type Config struct {
	// Analyze is the estimation entry point (required).
	Analyze AnalyzeFunc
	// AnalyzeAt, when non-nil, serves requests carrying operating-point
	// overrides (freq_ratio / voltage / temp_c) and enables POST /v1/oppoint.
	// When nil, such requests are rejected at validation.
	AnalyzeAt AnalyzeAtFunc
	// Fingerprint identifies the loaded model (options + cell library); it
	// is folded into every request key so results never leak across
	// operating points. The daemon uses the model-cache content address.
	Fingerprint string
	// Workers is the compute-queue worker count (default 2); QueueDepth is
	// the pending backlog beyond which requests get 503 (default 4x
	// workers).
	Workers    int
	QueueDepth int
	// CacheSize is the LRU result-cache capacity (default 128 reports).
	CacheSize int
	// Limits is the request validation envelope; zero fields default to
	// DefaultScenarios 1, MaxScenarios 64, MaxRetries 8, MaxWorkers 64.
	Limits Limits
	// DefaultTimeout bounds a computation when the request asks for no
	// deadline (0 = none); MaxTimeout caps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBatch caps the scenario count of one POST /v1/batch suite
	// (default 32).
	MaxBatch int
	// BatchRetention caps stored batches (default 64); when every retained
	// batch is still running, new batch requests get 503.
	BatchRetention int
	// Surrogate, when non-nil, attaches the ML fast tier; SurrogateMode
	// selects off (default), shadow (train + residuals, never serve), or
	// serve (confident predictions answer directly). See surrogate.go.
	Surrogate     SurrogateTier
	SurrogateMode string
}

// flight is one deduplicated computation. The first request for a key
// creates it and submits the job; identical concurrent requests join it.
// Every waiter holds a reference: when the last one leaves (client
// disconnect), the flight context is cancelled so the pipeline stops doing
// unobserved work. A batch entry waits without a deadline, so its reference
// pins the flight until the computation lands.
type flight struct {
	cancel context.CancelFunc
	// done is closed after rep and err are set; waiters read them only
	// after <-done, which establishes the happens-before edge.
	done chan struct{}
	rep  *core.Report
	err  error

	// refs counts waiters; guarded by mu (the server's).
	refs int
}

// Server is the estimation service: admission (validation + canonical
// hashing), the dedup/cache layer, the bounded compute queue, the batch
// store, and the HTTP surface.
type Server struct {
	cfg   Config
	met   *metrics
	queue *pool.Queue
	// lifeCtx parents every computation; cancelling it (via Abort, or the
	// ctx given to New) aborts all in-flight work.
	lifeCtx  context.Context
	lifeStop context.CancelFunc
	start    time.Time

	// ready flips once the model is warm; estimates before that get 503.
	readyMu sync.Mutex
	isReady bool // guarded by readyMu

	mu sync.Mutex
	// flights maps request key to the in-flight computation; guarded by mu.
	flights map[string]*flight
	// cache is the LRU result cache; guarded by mu.
	cache *pool.LRU[string, *core.Report]
	// batches and batchOrder hold the batch store; guarded by mu.
	batches    map[string]*batch
	batchOrder []string
	// closed marks the server as draining: no new computations; guarded by
	// mu.
	closed bool
}

// New builds a Server whose computations live under ctx: cancelling it
// aborts everything in flight (the daemon passes a background context and
// uses Close/Abort instead).
func New(ctx context.Context, cfg Config) (*Server, error) {
	if cfg.Analyze == nil {
		return nil, errors.New("server: Config.Analyze is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.Limits.DefaultScenarios <= 0 {
		cfg.Limits.DefaultScenarios = 1
	}
	if cfg.Limits.MaxScenarios <= 0 {
		cfg.Limits.MaxScenarios = 64
	}
	if cfg.Limits.MaxRetries <= 0 {
		cfg.Limits.MaxRetries = 8
	}
	if cfg.Limits.MaxWorkers <= 0 {
		cfg.Limits.MaxWorkers = 64
	}
	if cfg.Limits.MaxMCTrials <= 0 {
		cfg.Limits.MaxMCTrials = 5000
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.BatchRetention <= 0 {
		cfg.BatchRetention = 64
	}
	if ctx == nil {
		return nil, errors.New("server: nil ctx")
	}
	if err := validateSurrogate(&cfg); err != nil {
		return nil, err
	}
	lifeCtx, lifeStop := context.WithCancel(ctx)
	s := &Server{
		cfg:      cfg,
		met:      newMetrics(),
		lifeCtx:  lifeCtx,
		lifeStop: lifeStop,
		start:    time.Now(),
		flights:  make(map[string]*flight),
		cache:    pool.NewLRU[string, *core.Report](cfg.CacheSize),
		batches:  make(map[string]*batch),
	}
	s.queue = pool.NewQueue(lifeCtx, cfg.Workers, cfg.QueueDepth, func(*pool.PanicError) {
		s.met.panics.Add(1)
	})
	return s, nil
}

// SetReady marks the model warm; until then estimate requests get 503 and
// /healthz reports warming. The daemon calls it once its harness engine's
// framework is built.
func (s *Server) SetReady() {
	s.readyMu.Lock()
	s.isReady = true
	s.readyMu.Unlock()
}

func (s *Server) ready() bool {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	return s.isReady
}

// Close gracefully drains the server: new computations are rejected, every
// queued and in-flight computation runs to completion, and only then is the
// lifecycle context released. HTTP handlers waiting on those computations
// therefore see real results during an http.Server.Shutdown drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.queue.Close()
	s.lifeStop()
}

// Abort is Close without the grace: the lifecycle context is cancelled
// first, so in-flight pipelines stop at their next context poll, then the
// queue drains the (now fast-failing) remainder.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.lifeStop()
	s.queue.Close()
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	if s.cfg.AnalyzeAt != nil {
		mux.HandleFunc("POST /v1/oppoint", s.handleOppoint)
	}
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchGet)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// estimateResponse is the estimate success body; errorResponse carries every
// non-2xx body.
type estimateResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Tier says which tier answered: core.TierExact or core.TierSurrogate.
	Tier   string       `json:"tier"`
	Report *core.Report `json:"report"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body) // the client went away; nothing to do
}

// joinOutcome says how a request was matched to a result source.
type joinOutcome int

const (
	joinCreated  joinOutcome = iota // this request started the computation
	joinJoined                      // deduplicated onto an in-flight computation
	joinCacheHit                    // served from the LRU
	joinRejected                    // backpressure: queue full or draining
)

// join is the dedup/cache core: under one critical section it consults the
// result cache, then the flight table, and only then admits a new
// computation to the bounded queue. A returned flight carries a reference
// for the caller, which wait drops.
func (s *Server) join(req *Request, key string) (*core.Report, *flight, joinOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rep, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Add(1)
		return rep, nil, joinCacheHit
	}
	if f, ok := s.flights[key]; ok {
		s.met.dedupJoins.Add(1)
		f.refs++
		return nil, f, joinJoined
	}
	if s.closed {
		s.met.queueRejects.Add(1)
		return nil, nil, joinRejected
	}

	var fctx context.Context
	var cancel context.CancelFunc
	if d := req.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		fctx, cancel = context.WithTimeout(s.lifeCtx, d)
	} else {
		fctx, cancel = context.WithCancel(s.lifeCtx)
	}
	f := &flight{cancel: cancel, done: make(chan struct{}), refs: 1}
	// Copy the request so the computation owns an immutable snapshot — the
	// handler's *Request does not outlive the response.
	reqCopy := *req
	submitted := s.queue.TrySubmit(func(context.Context) {
		// Retire the flight even if the computation panics, so waiters are
		// released instead of blocking on done forever; the repanic lets the
		// queue's recovery account for it (the panics counter).
		defer func() {
			if r := recover(); r != nil {
				s.complete(key, f, nil, fmt.Errorf("internal error: panic in analyze: %v", r))
				panic(r)
			}
		}()
		rep, err := s.execute(fctx, &reqCopy)
		if err == nil {
			// Every successful exact result — estimates and batch entries
			// alike funnel through this closure — trains the surrogate and
			// updates the shadow-residual histogram.
			s.observeSurrogate(&reqCopy, rep)
		}
		s.complete(key, f, rep, err)
	})
	if !submitted {
		cancel()
		s.met.queueRejects.Add(1)
		return nil, nil, joinRejected
	}
	s.flights[key] = f
	s.met.computations.Add(1)
	return nil, f, joinCreated
}

// execute runs one admitted request: every computation — estimates, batch
// entries and oppoint probes alike — funnels through here from the flight it
// landed on.
func (s *Server) execute(ctx context.Context, req *Request) (*core.Report, error) {
	if req.pointOverride() {
		return s.cfg.AnalyzeAt(ctx, req.Benchmark, req.Scenarios, req.analyzeOpts(), req.cond(), req.FreqRatio)
	}
	return s.cfg.Analyze(ctx, req.Benchmark, req.Scenarios, req.analyzeOpts())
}

// complete retires a flight: successful reports enter the cache and waiters
// are released. Failures are not cached — the next identical request
// retries.
func (s *Server) complete(key string, f *flight, rep *core.Report, err error) {
	s.mu.Lock()
	if cur, ok := s.flights[key]; ok && cur == f {
		delete(s.flights, key)
	}
	if err == nil {
		// The cache serves the wire projection only; the solver state
		// behind it would hold per-instruction arrays for every scenario of
		// every cached key.
		s.cache.Add(key, rep.Summary())
	} else {
		s.met.failures.Add(1)
	}
	s.mu.Unlock()
	f.rep, f.err = rep, err
	close(f.done)
	f.cancel()
}

// leave drops one waiter's reference. When the last observer leaves an
// unfinished flight, the computation is cancelled — nobody is left to read
// the result.
func (s *Server) leave(key string, f *flight) {
	s.mu.Lock()
	abandoned := false
	if cur, ok := s.flights[key]; ok && cur == f {
		f.refs--
		abandoned = f.refs <= 0
	}
	s.mu.Unlock()
	if abandoned {
		f.cancel()
	}
}

// wait blocks until f lands or ctx ends, then drops this waiter's reference
// on f; it returns ctx's error when the waiter left first.
func (s *Server) wait(ctx context.Context, key string, f *flight) (err error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.leave(key, f)
	return err
}

// errorStatus is a failed computation's HTTP status: 503 (retry later) for a
// cancelled or timed-out context or a full queue, else the fallback.
func errorStatus(err error, fallback int) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errOppointQueueFull) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// servable rejects a valid request this daemon cannot run: an
// operating-point override without Config.AnalyzeAt. The estimate and batch
// handlers both apply it at admission.
func (s *Server) servable(req *Request) error {
	if req.pointOverride() && s.cfg.AnalyzeAt == nil {
		return errors.New("this daemon does not serve operating-point overrides")
	}
	return nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.met.estimateRequests.Add(1)
	start := time.Now()
	if !s.ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "model warming up, retry shortly"})
		return
	}
	req, err := parseRequest(w, r, s.cfg.Limits)
	if err == nil {
		err = s.servable(req)
	}
	if err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	key := req.Key(s.cfg.Fingerprint)
	if s.surrogateEligible(req) {
		if rep := s.consultSurrogate(req, key); rep != nil {
			writeJSON(w, http.StatusOK, estimateResponse{Key: key, Tier: core.TierSurrogate, Report: rep})
			s.met.latency.observeDuration(time.Since(start))
			return
		}
	}

	rep, f, outcome := s.join(req, key)
	switch outcome {
	case joinCacheHit:
		writeJSON(w, http.StatusOK, estimateResponse{Key: key, Cached: true, Tier: core.TierExact, Report: rep})
		s.met.latency.observeDuration(time.Since(start))
		return
	case joinRejected:
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "compute queue full, retry later"})
		return
	}

	if s.wait(r.Context(), key, f) != nil {
		// The client hung up; its reference is released, so an otherwise
		// unobserved computation is cancelled instead of burning the pool.
		s.met.clientCancels.Add(1)
		return
	}
	if f.err != nil {
		writeJSON(w, errorStatus(f.err, http.StatusInternalServerError), errorResponse{Error: f.err.Error()})
	} else {
		writeJSON(w, http.StatusOK, estimateResponse{Key: key, Cached: false, Tier: core.TierExact, Report: f.rep})
	}
	s.met.latency.observeDuration(time.Since(start))
}

type healthResponse struct {
	Status    string  `json:"status"`
	UptimeSec float64 `json:"uptime_sec"`
	Inflight  int     `json:"inflight"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.met.healthRequests.Add(1)
	s.mu.Lock()
	inflight := len(s.flights)
	s.mu.Unlock()
	resp := healthResponse{
		Status:    "ok",
		UptimeSec: time.Since(s.start).Seconds(),
		Inflight:  inflight,
	}
	code := http.StatusOK
	if !s.ready() {
		resp.Status = "warming"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsRequests.Add(1)
	s.mu.Lock()
	running := 0
	for _, b := range s.batches {
		if b.remaining > 0 {
			running++
		}
	}
	g := gauges{
		queueDepth:       s.queue.Depth(),
		inflight:         len(s.flights),
		cacheEntries:     s.cache.Len(),
		batchesStored:    len(s.batches),
		batchesRunning:   running,
		mcChunksInflight: montecarlo.InFlightChunks(),
		ready:            s.ready(),
		uptime:           time.Since(s.start),
	}
	s.mu.Unlock()
	if sg := s.cfg.Surrogate; sg != nil && s.cfg.SurrogateMode != SurrogateOff {
		g.surrogate = &surrogateGauges{mode: s.cfg.SurrogateMode, stats: sg.Stats()}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, g)
}

// newID returns a prefixed 16-hex-digit random handle.
func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id still
		// works, it is just guessable.
		return prefix + "-0000000000000000"
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}
