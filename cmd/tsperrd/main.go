// Command tsperrd is the resident estimation service: it warms one harness
// engine's framework (calibrated machine + trained datapath model, backed by
// the persistent model cache) and serves error-rate estimates over HTTP/JSON.
//
// Usage:
//
//	tsperrd [-listen :8080] [-workers N] [-queue N] [-cache N]
//	        [-voltage V] [-temp C]
//	        [-max-scenarios N] [-max-batch N] [-max-mc-trials N]
//	        [-request-timeout D] [-max-timeout D]
//	        [-drain-timeout D] [-model-cache] [-model-cache-dir DIR]
//	        [-surrogate off|shadow|serve] [-surrogate-max-std S]
//	        [-surrogate-guard-band S] [-surrogate-min-train N]
//	        [-surrogate-retrain N]
//
// Surrogate fast tier:
//
//	off     (default) every estimate runs the exact pipeline
//	shadow  the ML surrogate trains on every exact result and its accuracy
//	        is tracked in /metrics (residual histogram), but it never serves
//	serve   confident predictions answer POST /v1/estimate directly (tier
//	        "surrogate" in the response); uncertain or near-threshold ones
//	        escalate to the exact pipeline, whose results keep training the
//	        model. The trained surrogate persists in the model cache keyed
//	        on the model fingerprint.
//
// Endpoints:
//
//	POST /v1/estimate     {"benchmark":"typeset","scenarios":4}; optional
//	                      freq_ratio/voltage/temp_c fields estimate at an
//	                      explicit operating point
//	POST /v1/oppoint      {"benchmark":"typeset","target_error_rate":1e-4,
//	                      "voltages":[1.1,1.0],"temps_c":[25,85]} — bisect the
//	                      fastest frequency per condition, return the
//	                      (period, voltage) frontier meeting the target
//	POST /v1/batch        {"scenarios":[{...},{...}]} — 202 + batch id; the
//	                      suite runs through the dedup/cache layer with
//	                      bounded-queue pacing (identical entries compute
//	                      once); a one-entry batch collects a result later
//	GET  /v1/batches/{id} per-entry status and incremental results
//	GET  /healthz         503 while the model warms, 200 once ready
//	GET  /metrics         Prometheus text format
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains:
// every in-flight estimate runs to completion and its response is delivered
// before the process exits (bounded by -drain-timeout, after which in-flight
// work is aborted and the exit status is 1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/modelcache"
	"tsperr/internal/server"
	"tsperr/internal/surrogate"
)

// lazySurrogate defers the fast tier's construction to model warm-up (the
// adapter needs the engine's framework) while giving server.New a stable
// handle at startup. Until set() publishes the real adapter every request
// escalates as untrained — the same behavior a freshly trained-out tier has.
type lazySurrogate struct {
	adapter atomic.Pointer[harness.SurrogateAdapter]
}

func (l *lazySurrogate) set(a *harness.SurrogateAdapter) { l.adapter.Store(a) }

func (l *lazySurrogate) Decide(benchmark string, scenarios int, threshold float64) server.SurrogateDecision {
	if a := l.adapter.Load(); a != nil {
		return a.Decide(benchmark, scenarios, threshold)
	}
	return server.SurrogateDecision{Reason: surrogate.ReasonUntrained}
}

func (l *lazySurrogate) Observe(benchmark string, scenarios int, rep *core.Report) (float64, bool) {
	if a := l.adapter.Load(); a != nil {
		return a.Observe(benchmark, scenarios, rep)
	}
	return 0, false
}

func (l *lazySurrogate) Stats() server.SurrogateStats {
	if a := l.adapter.Load(); a != nil {
		return a.Stats()
	}
	return server.SurrogateStats{}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsperrd: ")
	listen := flag.String("listen", ":8080", "address to serve on")
	workers := flag.Int("workers", 2, "concurrent estimation computations")
	queueDepth := flag.Int("queue", 0,
		"pending-computation backlog before 503s (default 4x workers)")
	cacheSize := flag.Int("cache", 128, "LRU result-cache capacity (reports)")
	maxScenarios := flag.Int("max-scenarios", 64,
		"largest scenario fan-out a request may ask for")
	maxBatch := flag.Int("max-batch", 32,
		"largest scenario count one POST /v1/batch suite may carry")
	maxMCTrials := flag.Int("max-mc-trials", 5000,
		"largest Monte Carlo validation budget (mc_trials) a request may ask for")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute,
		"default per-computation deadline (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute,
		"cap on the per-request timeout_ms knob (0 = no cap)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight estimates")
	surrogateMode := flag.String("surrogate", server.SurrogateOff,
		"ML fast tier: off, shadow (train and track accuracy only), or serve (confident predictions answer directly)")
	surrogateMaxStd := flag.Float64("surrogate-max-std", 0,
		"serve only predictions whose log10 uncertainty is within this bound (0 = 0.25 default)")
	surrogateGuardBand := flag.Float64("surrogate-guard-band", 0,
		"escalate predictions within this log10 distance of a request's error_rate_threshold (0 = 0.15 default)")
	surrogateMinTrain := flag.Int("surrogate-min-train", 0,
		"exact results observed before the surrogate first trains (0 = 32 default)")
	surrogateRetrain := flag.Int("surrogate-retrain", 0,
		"new observations between surrogate retrainings (0 = 16 default)")
	engine := cliutil.Engine(flag.CommandLine, true)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tsperrd [-listen addr] [flags]; run with -h for the list")
		os.Exit(cliutil.ExitUsage)
	}
	eng := engine()

	// The same content address the model cache files under: options (with the
	// operating condition) plus the cell library. Request keys therefore never
	// collide across operating points or library revisions.
	fingerprint := modelcache.Key(eng.Options(), cell.Fingerprint())

	var lazyTier *lazySurrogate
	switch *surrogateMode {
	case server.SurrogateOff:
	case server.SurrogateShadow, server.SurrogateServe:
		lazyTier = &lazySurrogate{}
	default:
		fmt.Fprintf(os.Stderr, "tsperrd: unknown -surrogate %q (off, shadow, serve)\n", *surrogateMode)
		os.Exit(cliutil.ExitUsage)
	}

	cfg := server.Config{
		Analyze:     eng.Analyze,
		AnalyzeAt:   eng.AnalyzeAt,
		Fingerprint: fingerprint,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheSize:   *cacheSize,
		Limits: server.Limits{
			DefaultScenarios: harness.DefaultScenarios,
			MaxScenarios:     *maxScenarios,
			MaxMCTrials:      *maxMCTrials,
			Lookup: func(name string) error {
				_, err := mibench.ByName(name)
				return err
			},
		},
		DefaultTimeout: *requestTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBatch:       *maxBatch,
	}
	if lazyTier != nil {
		cfg.Surrogate = lazyTier
		cfg.SurrogateMode = *surrogateMode
	}
	srv, err := server.New(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Bind before logging the address, so the log names the port bound (the
	// kernel's choice under -listen :0); a signal after that line drains.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Warm the engine's framework off the serving path so the listener is up
	// (and /healthz answers "warming") while calibration and training run —
	// or, with a warm model cache, restore in well under a second.
	go func() {
		t0 := time.Now()
		fw, err := eng.Framework(context.Background())
		if err != nil {
			log.Fatalf("model warm-up failed: %v", err)
		}
		if lazyTier != nil {
			tier, err := surrogate.New(surrogate.Config{
				Fingerprint:  fingerprint,
				Dir:          eng.CacheDir(),
				MaxStd:       *surrogateMaxStd,
				GuardBand:    *surrogateGuardBand,
				MinTrain:     *surrogateMinTrain,
				RetrainEvery: *surrogateRetrain,
			})
			if err != nil {
				log.Fatalf("surrogate tier failed: %v", err)
			}
			lazyTier.set(harness.NewSurrogateAdapter(fw, tier))
			st := tier.Stats()
			log.Printf("surrogate fast tier %s (model v%d, %d training rows)",
				*surrogateMode, st.ModelVersion, st.TrainSize)
		}
		srv.SetReady()
		log.Printf("model warm in %.2fs; serving estimates", time.Since(t0).Seconds())
	}()

	select {
	case err := <-serveErr:
		// The listener died on its own: nothing to drain.
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("received %s; draining in-flight estimates (up to %s)", sig, *drainTimeout)
	}

	// Graceful drain: Shutdown stops the listener and waits for active
	// handlers — which are blocked on their computations — so every accepted
	// request gets its real result. Only then is the compute queue closed.
	// The drain deadline must NOT cancel the computations' base context
	// (they live under srv's own lifecycle), so a slow-but-finite estimate
	// still completes inside the window.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete (%v); aborting in-flight work", err)
		srv.Abort()
		_ = httpSrv.Close()
		os.Exit(cliutil.ExitFailure)
	}
	srv.Close()
	if lazyTier != nil {
		// Let an in-flight background retraining finish (and persist) before
		// the process exits.
		if a := lazyTier.adapter.Load(); a != nil {
			a.Tier().Quiesce()
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}
