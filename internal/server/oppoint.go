package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
)

// POST /v1/oppoint: operating-point selection as a service. Given a target
// error rate and a (voltage, temperature) grid, the handler bisects over the
// frequency ratio at each condition — core.SelectOperatingPoint's
// deterministic index bisection — and returns the Pareto frontier of fastest
// (period, voltage) points meeting the target. Every bisection probe is an
// ordinary estimate sub-request pushed through the same join machinery as
// /v1/estimate, so probes hit the LRU cache and dedup against concurrent
// searches and plain estimates; the oppoint_* counters in /metrics make that
// sharing visible.

// Oppoint search envelope: defaults and caps.
const (
	// defaultOppointMinRatio/MaxRatio bound the default search range: from
	// no speculation (1.0) to well past the design's working ratio.
	defaultOppointMinRatio = 1.0
	defaultOppointMaxRatio = 1.3
	// defaultOppointSteps quantizes the default grid to ~2% frequency
	// resolution; maxOppointSteps caps the probe budget a request may ask
	// for (log2(256) + 2 = 10 probes per condition).
	defaultOppointSteps = 16
	maxOppointSteps     = 256
	// maxOppointConditions caps the V/T grid size of one search.
	maxOppointConditions = 16
)

// OppointRequest is the body of POST /v1/oppoint.
type OppointRequest struct {
	// Benchmark names the program to optimize (required).
	Benchmark string `json:"benchmark"`
	// Scenarios is the dataset count per probe (0 = server default).
	Scenarios int `json:"scenarios,omitempty"`
	// TargetErrorRate is the acceptable mean error rate, in [0, 1].
	TargetErrorRate float64 `json:"target_error_rate"`
	// Voltages and Temps span the condition grid (cross product); an empty
	// list means the single nominal value. Zero entries mean nominal too
	// (cell.OperatingCondition semantics).
	Voltages []float64 `json:"voltages,omitempty"`
	Temps    []float64 `json:"temps_c,omitempty"`
	// MinRatio/MaxRatio/Steps define the quantized frequency-ratio grid the
	// bisection searches (zero fields select the defaults above).
	MinRatio float64 `json:"min_ratio,omitempty"`
	MaxRatio float64 `json:"max_ratio,omitempty"`
	Steps    int     `json:"steps,omitempty"`
	// TimeoutMS bounds the whole search, capped by the server's -max-timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// OppointPoint is one condition's search outcome: the fastest grid ratio
// meeting the target (or the infeasible low end), with the period/frequency
// it implies and the speedup/risk summary at that ratio.
type OppointPoint struct {
	VoltageV float64 `json:"voltage"`
	TempC    float64 `json:"temp_c"`
	// Feasible is false when even MinRatio exceeds the target; Ratio and
	// ErrorRate then describe that infeasible low end.
	Feasible  bool    `json:"feasible"`
	Ratio     float64 `json:"ratio"`
	PeriodPs  float64 `json:"period_ps"`
	FreqMHz   float64 `json:"freq_mhz"`
	ErrorRate float64 `json:"error_rate"`
	// Speedup is the expected performance relative to baseline under the
	// replay-at-half-frequency model; CDFBelowBreakEven is the probability
	// speculation stays profitable across chips and inputs (risk measure).
	Speedup           float64 `json:"speedup"`
	CDFBelowBreakEven float64 `json:"cdf_below_break_even"`
	// Evals counts the bisection probes this condition spent.
	Evals int `json:"evals"`
}

// OppointResponse is the POST /v1/oppoint success body.
type OppointResponse struct {
	Benchmark       string  `json:"benchmark"`
	TargetErrorRate float64 `json:"target_error_rate"`
	BaseFreqMHz     float64 `json:"base_freq_mhz"`
	// Points holds one entry per distinct grid condition, sorted by
	// (voltage, temperature) — invariant to the request's grid ordering.
	Points []OppointPoint `json:"points"`
	// Frontier is the Pareto frontier over feasible points — no other
	// feasible point is both faster (shorter period) and lower-voltage —
	// sorted fastest first, so Frontier[0] is the speed-optimal choice.
	Frontier []OppointPoint `json:"frontier"`
	// Subrequests counts the estimate sub-requests this search issued;
	// CacheHits says how many of them the LRU answered without computing.
	Subrequests int `json:"subrequests"`
	CacheHits   int `json:"cache_hits"`
}

// normalize fills defaulted fields in place.
func (q *OppointRequest) normalize(limits Limits) {
	if q.Scenarios <= 0 {
		q.Scenarios = limits.DefaultScenarios
	}
	if q.MinRatio == 0 {
		q.MinRatio = defaultOppointMinRatio
	}
	if q.MaxRatio == 0 {
		q.MaxRatio = defaultOppointMaxRatio
	}
	if q.Steps == 0 {
		q.Steps = defaultOppointSteps
	}
	if len(q.Voltages) == 0 {
		q.Voltages = []float64{0}
	}
	if len(q.Temps) == 0 {
		q.Temps = []float64{0}
	}
}

// validate rejects out-of-envelope searches with client-facing messages.
func (q *OppointRequest) validate(limits Limits) error {
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
	if !(q.TargetErrorRate >= 0 && q.TargetErrorRate <= 1) {
		return fmt.Errorf("target_error_rate %g out of range [0, 1]", q.TargetErrorRate)
	}
	if !(q.MinRatio >= minFreqRatio && q.MinRatio <= maxFreqRatio) {
		return fmt.Errorf("min_ratio %g out of range [%g, %g]", q.MinRatio, minFreqRatio, maxFreqRatio)
	}
	if !(q.MaxRatio >= q.MinRatio && q.MaxRatio <= maxFreqRatio) {
		return fmt.Errorf("max_ratio %g out of range [min_ratio=%g, %g]", q.MaxRatio, q.MinRatio, maxFreqRatio)
	}
	if q.Steps < 1 || q.Steps > maxOppointSteps {
		return fmt.Errorf("steps %d out of range [1, %d]", q.Steps, maxOppointSteps)
	}
	if n := len(q.Voltages) * len(q.Temps); n > maxOppointConditions {
		return fmt.Errorf("condition grid has %d points, max %d", n, maxOppointConditions)
	}
	for _, v := range q.Voltages {
		for _, t := range q.Temps {
			if err := (cell.OperatingCondition{VoltageV: v, TempC: t}).Validate(); err != nil {
				return err
			}
		}
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d must be >= 0", q.TimeoutMS)
	}
	return nil
}

// conditions expands the grid into normalized, deduplicated conditions in a
// canonical (voltage, temperature) order, so the response — and the probe
// sequence feeding the shared cache — is invariant to the request's list
// ordering.
func (q *OppointRequest) conditions() []cell.OperatingCondition {
	seen := make(map[[2]uint64]bool)
	out := make([]cell.OperatingCondition, 0, len(q.Voltages)*len(q.Temps))
	for _, v := range q.Voltages {
		for _, t := range q.Temps {
			c := cell.OperatingCondition{VoltageV: v, TempC: t}.Norm()
			k := [2]uint64{math.Float64bits(c.VoltageV), math.Float64bits(c.TempC)}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VoltageV < out[j].VoltageV {
			return true
		}
		if out[i].VoltageV > out[j].VoltageV {
			return false
		}
		return out[i].TempC < out[j].TempC
	})
	return out
}

// errOppointQueueFull signals backpressure from a sub-request's join.
var errOppointQueueFull = errors.New("compute queue full, retry later")

// oppointSub pushes one bisection probe through the estimate join machinery
// and waits for its report; cached says whether the LRU answered directly.
func (s *Server) oppointSub(ctx context.Context, sub *Request) (rep *core.Report, cached bool, err error) {
	s.met.oppointSubrequests.Add(1)
	key := sub.Key(s.cfg.Fingerprint)
	rep, f, outcome := s.join(sub, key)
	switch outcome {
	case joinCacheHit:
		s.met.oppointSubrequestCacheHits.Add(1)
		return rep, true, nil
	case joinRejected:
		return nil, false, errOppointQueueFull
	}
	if err := s.wait(ctx, key, f); err != nil {
		return nil, false, err
	}
	if f.err != nil {
		return nil, false, f.err
	}
	return f.rep, false, nil
}

func (s *Server) handleOppoint(w http.ResponseWriter, r *http.Request) {
	s.met.oppointRequests.Add(1)
	if !s.ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "model warming up, retry shortly"})
		return
	}
	var q OppointRequest
	if err := decodeJSON(w, r.Body, maxRequestBody, &q); err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid request body: " + err.Error()})
		return
	}
	q.normalize(s.cfg.Limits)
	if err := q.validate(s.cfg.Limits); err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	ctx := r.Context()
	if d := (&Request{TimeoutMS: q.TimeoutMS}).timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	baseFreq := errormodel.DefaultOptions().BaseFreqMHz
	basePeriod := 1e6 / baseFreq
	resp := OppointResponse{
		Benchmark:       q.Benchmark,
		TargetErrorRate: q.TargetErrorRate,
		BaseFreqMHz:     baseFreq,
		Points:          make([]OppointPoint, 0, maxOppointConditions),
	}
	for _, cond := range q.conditions() {
		cond := cond
		s.met.oppointSearches.Add(1)
		analyze := func(ctx context.Context, ratio float64) (*core.Report, error) {
			sub := &Request{
				Benchmark: q.Benchmark,
				Scenarios: q.Scenarios,
				FreqRatio: ratio,
				VoltageV:  cond.VoltageV,
				TempC:     cond.TempC,
			}
			rep, cached, err := s.oppointSub(ctx, sub)
			if err != nil {
				return nil, err
			}
			resp.Subrequests++
			if cached {
				resp.CacheHits++
			}
			return rep, nil
		}
		op, err := core.SelectOperatingPoint(ctx, q.MinRatio, q.MaxRatio, q.Steps, q.TargetErrorRate, analyze)
		if err != nil {
			writeJSON(w, errorStatus(err, http.StatusInternalServerError),
				errorResponse{Error: fmt.Sprintf("search at %s: %v", cond, err)})
			return
		}
		if !op.Feasible {
			s.met.oppointInfeasible.Add(1)
		}
		resp.Points = append(resp.Points, OppointPoint{
			VoltageV:          cond.VoltageV,
			TempC:             cond.TempC,
			Feasible:          op.Feasible,
			Ratio:             op.Ratio,
			PeriodPs:          basePeriod / op.Ratio,
			FreqMHz:           baseFreq * op.Ratio,
			ErrorRate:         op.ErrorRate,
			Speedup:           op.Speedup,
			CDFBelowBreakEven: op.CDFBelowBreakEven,
			Evals:             op.Evals,
		})
	}
	resp.Frontier = oppointFrontier(resp.Points)
	writeJSON(w, http.StatusOK, resp)
}

// oppointFrontier returns the Pareto frontier over the feasible points: a
// point survives when no other feasible point has both a shorter-or-equal
// period and a lower-or-equal voltage (one strictly). Ties on both axes keep
// the first point in canonical order. Sorted fastest (shortest period) first,
// breaking period ties by lower voltage.
func oppointFrontier(points []OppointPoint) []OppointPoint {
	frontier := make([]OppointPoint, 0, len(points))
	for i, p := range points {
		if !p.Feasible {
			continue
		}
		dominated := false
		for j, o := range points {
			if i == j || !o.Feasible {
				continue
			}
			if o.PeriodPs > p.PeriodPs || o.VoltageV > p.VoltageV {
				continue
			}
			if o.PeriodPs < p.PeriodPs || o.VoltageV < p.VoltageV || j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].PeriodPs < frontier[j].PeriodPs {
			return true
		}
		if frontier[i].PeriodPs > frontier[j].PeriodPs {
			return false
		}
		return frontier[i].VoltageV < frontier[j].VoltageV
	})
	return frontier
}
