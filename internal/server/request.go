// Package server implements tsperrd, the resident estimation service: one
// warm framework (calibrated machine + trained datapath model, the
// once-per-design work of PAPER.md §3–4) serving error-rate estimates over
// HTTP/JSON. The serving layer adds what a CLI cannot: request
// deduplication (concurrent identical requests share one computation),
// an LRU result cache keyed on the canonical request hash and the model
// fingerprint, bounded-queue backpressure, and graceful drain on shutdown.
// The numerical pipeline itself lives in internal/core; this package never
// touches it beyond the injected analyze function.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cluster"
	"tsperr/internal/core"
)

// Request is the body of POST /v1/estimate. The zero value of every field
// except Benchmark selects a server-side default, so the minimal request is
// {"benchmark": "typeset"}.
type Request struct {
	// Benchmark names the program to analyze (mibench.ByName).
	Benchmark string `json:"benchmark"`
	// Scenarios is the number of input datasets (the data-variation axis).
	Scenarios int `json:"scenarios,omitempty"`
	// Workers bounds the per-computation scenario concurrency; it does not
	// change the result (the pipeline is bit-deterministic across worker
	// counts), so it is excluded from the request hash.
	Workers int `json:"workers,omitempty"`
	// Retries / MinScenarios / FailFast are the core.AnalyzeOpts resilience
	// knobs; they can change the report (degraded runs), so they are part
	// of the request hash.
	Retries      int  `json:"retries,omitempty"`
	MinScenarios int  `json:"min_scenarios,omitempty"`
	FailFast     bool `json:"fail_fast,omitempty"`
	// MCTrials, when positive, appends a sharded Monte Carlo validation to
	// the report (core.AnalyzeOpts.MCTrials). It changes the report, so it is
	// part of the request hash.
	MCTrials int `json:"mc_trials,omitempty"`
	// TimeoutMS bounds this computation's wall time, capped by the server's
	// -max-timeout. Zero selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async, when set, returns a job id immediately (202); poll
	// GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// ErrorRateThreshold is the caller's decision boundary (a fraction in
	// [0, 1)): on a serve-mode surrogate daemon, predictions landing inside
	// the guard band around it escalate to the exact pipeline. It tunes the
	// confidence gate only — the report is identical either way — so it is
	// excluded from the request hash and requests differing only in it dedup
	// onto one computation.
	ErrorRateThreshold float64 `json:"error_rate_threshold,omitempty"`
	// FreqRatio, VoltageV, and TempC override the operating point for this
	// request: the frequency ratio (speculative over baseline; 0 = the
	// design's working ratio) and the supply/temperature condition (0 = the
	// daemon's configured condition). All three determine the result, so
	// they are part of the request hash; requests carrying any override are
	// served through Config.AnalyzeAt and bypass the surrogate fast tier
	// (the tier is trained at the daemon's own operating point).
	FreqRatio float64 `json:"freq_ratio,omitempty"`
	VoltageV  float64 `json:"voltage,omitempty"`
	TempC     float64 `json:"temp_c,omitempty"`

	// forwarded marks a request a cluster coordinator routed here
	// (cluster.HeaderForwarded): it executes locally and is never re-routed,
	// so a misconfigured mesh cannot bounce a request in circles.
	forwarded bool
}

// maxRequestBody bounds the decode of one request body; estimation requests
// are a few hundred bytes, so anything larger is a client bug.
const maxRequestBody = 1 << 20

// parseRequest decodes, normalizes, and validates one estimate request.
// Unknown fields are rejected so a typoed knob fails loudly instead of
// silently selecting a default.
func parseRequest(w http.ResponseWriter, r *http.Request, limits Limits) (*Request, error) {
	var req Request
	if err := cluster.DecodeJSON(w, r.Body, maxRequestBody, &req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	req.normalize(limits)
	if err := req.validate(limits); err != nil {
		return nil, err
	}
	req.forwarded = r.Header.Get(cluster.HeaderForwarded) != ""
	return &req, nil
}

// Limits is the validation envelope the server applies to every request.
type Limits struct {
	// DefaultScenarios fills Request.Scenarios == 0; MaxScenarios rejects
	// oversized fan-outs before they reach the compute queue.
	DefaultScenarios int
	MaxScenarios     int
	// MaxRetries bounds per-scenario retry amplification.
	MaxRetries int
	// MaxWorkers bounds per-computation concurrency.
	MaxWorkers int
	// MaxMCTrials bounds the Monte Carlo validation budget a request may ask
	// for.
	MaxMCTrials int
	// Lookup, when non-nil, vets the benchmark name at admission (the
	// daemon wires mibench.ByName); nil accepts any name and lets the
	// analyze function fail it.
	Lookup func(name string) error
}

// normalize fills defaulted fields in place.
func (q *Request) normalize(limits Limits) {
	if q.Scenarios <= 0 {
		q.Scenarios = limits.DefaultScenarios
	}
}

// validate rejects out-of-envelope requests with client-facing messages.
func (q *Request) validate(limits Limits) error {
	if q.Benchmark == "" {
		return errors.New("benchmark is required")
	}
	if limits.Lookup != nil {
		if err := limits.Lookup(q.Benchmark); err != nil {
			return fmt.Errorf("unknown benchmark %q", q.Benchmark)
		}
	}
	if q.Scenarios < 1 || q.Scenarios > limits.MaxScenarios {
		return fmt.Errorf("scenarios %d out of range [1, %d]", q.Scenarios, limits.MaxScenarios)
	}
	if q.Workers < 0 || q.Workers > limits.MaxWorkers {
		return fmt.Errorf("workers %d out of range [0, %d]", q.Workers, limits.MaxWorkers)
	}
	if q.Retries < 0 || q.Retries > limits.MaxRetries {
		return fmt.Errorf("retries %d out of range [0, %d]", q.Retries, limits.MaxRetries)
	}
	if q.MinScenarios < 0 || q.MinScenarios > q.Scenarios {
		return fmt.Errorf("min_scenarios %d out of range [0, scenarios=%d]", q.MinScenarios, q.Scenarios)
	}
	if q.MCTrials < 0 || q.MCTrials > limits.MaxMCTrials {
		return fmt.Errorf("mc_trials %d out of range [0, %d]", q.MCTrials, limits.MaxMCTrials)
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be >= 0", q.TimeoutMS)
	}
	if q.ErrorRateThreshold < 0 || q.ErrorRateThreshold >= 1 || math.IsNaN(q.ErrorRateThreshold) {
		return fmt.Errorf("error_rate_threshold %g out of range [0, 1)", q.ErrorRateThreshold)
	}
	if q.FreqRatio != 0 && !(q.FreqRatio >= minFreqRatio && q.FreqRatio <= maxFreqRatio) {
		return fmt.Errorf("freq_ratio %g out of range [%g, %g]", q.FreqRatio, minFreqRatio, maxFreqRatio)
	}
	if err := q.cond().Validate(); err != nil {
		return err
	}
	return nil
}

// minFreqRatio/maxFreqRatio bound a request's frequency-ratio override;
// outside this window the calibrated model has nothing meaningful to say.
const (
	minFreqRatio = 0.5
	maxFreqRatio = 2.0
)

// cond returns the request's operating-condition override; the zero value
// (no override) normalizes to the nominal condition inside internal/cell.
func (q *Request) cond() cell.OperatingCondition {
	return cell.OperatingCondition{VoltageV: q.VoltageV, TempC: q.TempC}
}

// pointOverride reports whether the request asks for an explicit operating
// point instead of the daemon's default serving point.
func (q *Request) pointOverride() bool {
	return q.FreqRatio != 0 || q.VoltageV != 0 || q.TempC != 0
}

// Key is the canonical content address of a request's result: a SHA-256
// over the result-determining fields plus the server's model fingerprint
// (options + cell library), so two daemons at different operating points
// never share entries. Workers, TimeoutMS, and Async are deliberately
// excluded — they shape scheduling, not the report (worker-count
// determinism is pinned by errormodel's determinism tests) — so requests
// differing only in those knobs dedup onto one computation.
func (q *Request) Key(fingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "fp=%s\nbench=%s\nscenarios=%d\nretries=%d\nmin=%d\nfailfast=%t\n",
		fingerprint, q.Benchmark, q.Scenarios, q.Retries, q.MinScenarios, q.FailFast)
	// mc=0 (the overwhelmingly common case) is hashed explicitly rather than
	// omitted, keeping the canonical form total: every result-determining
	// field always contributes exactly one line.
	fmt.Fprintf(h, "mc=%d\n", q.MCTrials)
	// The operating-point overrides determine the result; unset (0) hashes
	// as 0 — "the daemon's default point" — keeping the canonical form total.
	fmt.Fprintf(h, "ratio=%g\nvolt=%g\ntemp=%g\n", q.FreqRatio, q.VoltageV, q.TempC)
	return hex.EncodeToString(h.Sum(nil))
}

// analyzeOpts maps the request's resilience knobs onto the pipeline's
// options.
func (q *Request) analyzeOpts() core.AnalyzeOpts {
	return core.AnalyzeOpts{
		Workers:      q.Workers,
		Retries:      q.Retries,
		MinScenarios: q.MinScenarios,
		FailFast:     q.FailFast,
		MCTrials:     q.MCTrials,
	}
}

// proxyBody is the request as re-marshaled for routing to a peer: the same
// result-determining fields (so the peer computes the identical key and its
// own dedup layer kicks in), forced synchronous — the coordinator's flight is
// the thing being awaited, not a job on the peer.
func (q *Request) proxyBody() Request {
	p := *q
	p.Async = false
	return p
}

// timeout resolves the effective computation deadline: the request's ask
// capped by max, or def when the request leaves it unset. Zero means no
// deadline.
func (q *Request) timeout(def, max time.Duration) time.Duration {
	if q.TimeoutMS <= 0 {
		return def
	}
	d := time.Duration(q.TimeoutMS) * time.Millisecond
	if max > 0 && d > max {
		return max
	}
	return d
}
