package server

import (
	"fmt"
	"math"
	"sync/atomic"

	"tsperr/internal/core"
	"tsperr/internal/surrogate"
)

// The surrogate fast tier hooks into the serving path at two points. On the
// way in, serve-mode daemons consult the surrogate BEFORE the dedup/cache
// join: a confident prediction answers the request in microseconds without
// touching the compute queue, and everything else escalates to the exact
// pipeline unchanged. On the way out, every successful exact computation is
// fed back as a training observation, and the shadow residual — the current
// model's |predicted − actual| log10 error measured before the observation
// lands — is recorded in /metrics, so operators can watch surrogate accuracy
// against ground truth continuously in BOTH modes before trusting serve mode.

// Surrogate mode names (Config.SurrogateMode, tsperrd -surrogate).
const (
	// SurrogateOff disables the fast tier entirely ("" means off too).
	SurrogateOff = "off"
	// SurrogateShadow trains and measures residuals on every exact result
	// but never serves a prediction.
	SurrogateShadow = "shadow"
	// SurrogateServe answers confident predictions from the fast tier and
	// escalates the rest; exact results still feed training and residuals.
	SurrogateServe = "serve"
)

// SurrogateDecision is the gate's verdict on one request.
type SurrogateDecision struct {
	// Serve is true when the prediction may answer without the exact
	// pipeline.
	Serve bool
	// Reason is surrogate.ReasonServed or the escalation reason.
	Reason string
	// Meta is the prediction metadata for the response (nil when untrained).
	Meta *core.SurrogateMeta
}

// SurrogateStats is the learning-state snapshot rendered as gauges.
type SurrogateStats struct {
	ModelVersion int
	TrainSize    int
	Buffered     int
	Trainings    uint64
}

// SurrogateTier is the fast-tier surface the server consumes; the daemon
// wires harness.SurrogateAdapter and tests substitute fakes. All methods
// must be safe for concurrent use.
type SurrogateTier interface {
	// Decide runs the confidence gate for a benchmark at a scenario count;
	// threshold is the caller's error-rate decision boundary (0 = none).
	Decide(benchmark string, scenarios int, threshold float64) SurrogateDecision
	// Observe feeds one exact report back as training data, returning the
	// pre-update model's shadow residual (ok == false while untrained).
	Observe(benchmark string, scenarios int, rep *core.Report) (residual float64, ok bool)
	// Stats snapshots the learning state.
	Stats() SurrogateStats
}

// surrogateEligible reports whether an estimate request may be answered by
// the fast tier: serve mode only, and never for Monte Carlo validations (the
// surrogate has no trials to validate) or operating-point overrides (the
// tier is trained at the daemon's own serving point and would silently
// answer for the wrong condition). Batch entries never ask: a stored result
// promises an exact pipeline run.
func (s *Server) surrogateEligible(req *Request) bool {
	return s.cfg.SurrogateMode == SurrogateServe && s.cfg.Surrogate != nil &&
		req.MCTrials == 0 && !req.pointOverride()
}

// consultSurrogate runs the gate for an eligible request. A cached exact
// report always wins over a prediction — the cache peek keeps "ask twice,
// get the better answer" monotone. The returned report is nil when the
// request must escalate to the exact pipeline.
func (s *Server) consultSurrogate(req *Request, key string) *core.Report {
	s.mu.Lock()
	_, cached := s.cache.Get(key)
	s.mu.Unlock()
	if cached {
		return nil // the join path will serve the exact cached report
	}
	d := s.cfg.Surrogate.Decide(req.Benchmark, req.Scenarios, req.ErrorRateThreshold)
	if !d.Serve {
		s.met.surrogateEscalation(d.Reason)
		return nil
	}
	s.met.surrogateHits.Add(1)
	return &core.Report{
		Name:      req.Benchmark,
		Tier:      core.TierSurrogate,
		Surrogate: d.Meta,
	}
}

// observeSurrogate feeds a finished exact computation back to the tier (both
// shadow and serve modes) and records the shadow residual.
func (s *Server) observeSurrogate(req *Request, rep *core.Report) {
	if s.cfg.Surrogate == nil || s.cfg.SurrogateMode == SurrogateOff || s.cfg.SurrogateMode == "" {
		return
	}
	// A report computed at an overridden operating point is ground truth for
	// THAT point, not the daemon's serving point; feeding it back would teach
	// the tier the wrong condition.
	if req.pointOverride() {
		return
	}
	// Degraded runs carry a survivor-dependent estimate and zero-rate
	// estimates have no log10 label; neither is trainable ground truth.
	if rep == nil || rep.Estimate == nil || rep.Degraded {
		return
	}
	rate := rep.Estimate.MeanErrorRate()
	if !(rate > 0) || math.IsInf(rate, 0) {
		return
	}
	residual, ok := s.cfg.Surrogate.Observe(req.Benchmark, req.Scenarios, rep)
	s.met.surrogateObservations.Add(1)
	if ok {
		s.met.surrogateResidual.observe(residual)
	}
}

// validateSurrogate normalizes and checks the surrogate configuration.
func validateSurrogate(cfg *Config) error {
	switch cfg.SurrogateMode {
	case "", SurrogateOff:
		cfg.SurrogateMode = SurrogateOff
		return nil
	case SurrogateShadow, SurrogateServe:
		if cfg.Surrogate == nil {
			return fmt.Errorf("server: surrogate mode %q needs Config.Surrogate", cfg.SurrogateMode)
		}
		return nil
	default:
		return fmt.Errorf("server: unknown surrogate mode %q (off, shadow, serve)", cfg.SurrogateMode)
	}
}

// surrogateMetrics are the fast-tier counters, grouped so metrics.render can
// keep them out of scrapes on daemons without a surrogate.
type surrogateMetrics struct {
	surrogateHits         atomic.Uint64
	surrogateObservations atomic.Uint64
	// Escalations by fixed reason label set (surrogate.Reason*).
	escUntrained      atomic.Uint64
	escUncertain      atomic.Uint64
	escNearThreshold  atomic.Uint64
	surrogateResidual *histogram
}

// surrogateEscalation counts one escalation by reason; unknown reasons fold
// into the uncertain bucket so the label set stays fixed.
func (m *metrics) surrogateEscalation(reason string) {
	switch reason {
	case surrogate.ReasonUntrained:
		m.escUntrained.Add(1)
	case surrogate.ReasonNearThreshold:
		m.escNearThreshold.Add(1)
	default:
		m.escUncertain.Add(1)
	}
}

// residualBounds are the shadow-residual histogram bucket upper bounds in
// absolute log10 error: 0.01 (~2%) resolves a well-trained surrogate, 2
// (100x) catches a badly wrong one.
var residualBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 1, 2}

// surrogateGauges is the fast-tier state sampled at render time.
type surrogateGauges struct {
	mode  string
	stats SurrogateStats
}
