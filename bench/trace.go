package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cfg"
	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/pool"
	"tsperr/internal/server"
)

// Span names. The stage spans are leaves under an analyze span, which sits
// under the client's round-trip span of the request that caused it.
const (
	spanRoundTrip    = "client.roundtrip"
	spanAnalyze      = "harness.analyze"
	spanAnalyzeAt    = "harness.analyze_at"
	spanBuild        = "cfg.build"
	spanSim          = "cpu.sim"
	spanControl      = "errormodel.control"
	spanConditionals = "errormodel.conditionals"
	spanMarginals    = "errormodel.marginals"
	spanEstimate     = "core.estimate"
)

// stageSpans are the pipeline phases of one plain analysis, in order.
var stageSpans = []string{spanBuild, spanSim, spanControl, spanConditionals, spanMarginals, spanEstimate}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Parent is the causing span's ID (-1 for a root) and Req the
// request ID shared by every span of one request (timed requests count from
// 0 in stream order, warm-up requests are negative, -1 is unattributed).
// Count carries the instructions a cpu.sim span retired.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"request"`
	Count  int64  `json:"count,omitempty"`
}

// tracer records spans in memory around the calls the benchmark makes into
// each layer; nothing inside the program is instrumented. Its Analyze hook
// runs the pipeline through the same public stage calls, in the same order
// and with the same bounded concurrency, as core.Framework.AnalyzeWithOpts.
type tracer struct {
	fp    string
	epoch time.Time
	// reqs maps a result identity (entry.key) to the request that first
	// asks for it. It is filled before the server sees any request and only
	// read afterwards.
	reqs map[string]int

	mu sync.Mutex
	// spans is every recorded span, indexed by ID; guarded by mu.
	spans []span
	// roundTrips maps a request ID to its open round-trip span; guarded by mu.
	roundTrips map[int]int
	// atEstimates keeps a few estimates AnalyzeAt returned, for the
	// quantile post-pass on oppoint-grid; guarded by mu.
	atEstimates []*core.Estimate
}

func newTracer(fp string) *tracer {
	return &tracer{fp: fp, epoch: time.Now(), reqs: make(map[string]int), roundTrips: make(map[int]int)}
}

// register attributes the first request asking for key to request ID req.
func (t *tracer) register(key string, req int) {
	if _, ok := t.reqs[key]; !ok {
		t.reqs[key] = req
	}
}

func (t *tracer) request(key string) int {
	if r, ok := t.reqs[key]; ok {
		return r
	}
	return -1
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent, req int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Req: req})
	if name == spanRoundTrip {
		t.roundTrips[req] = id
	}
	return id
}

func (t *tracer) end(id int, count int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	t.spans[id].Count = count
}

// roundTrip returns the open round-trip span of a request, or -1.
func (t *tracer) roundTrip(req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.roundTrips[req]; ok {
		return id
	}
	return -1
}

// stage records fn as one span; fn returns the span's count.
func (t *tracer) stage(name string, parent, req int, fn func() (int64, error)) error {
	id := t.begin(name, parent, req)
	n, err := fn()
	t.end(id, n)
	return err
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// analyze is the traced server.Config.Analyze.
func (t *tracer) analyze(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
	key := (&server.Request{
		Benchmark: name, Scenarios: scenarios, Retries: opts.Retries,
		MinScenarios: opts.MinScenarios, FailFast: opts.FailFast, MCTrials: opts.MCTrials,
	}).Key(t.fp)
	req := t.request(key)
	id := t.begin(spanAnalyze, t.roundTrip(req), req)
	defer t.end(id, 0)
	return t.pipeline(ctx, name, scenarios, opts, id, req)
}

// analyzeAt is the traced server.Config.AnalyzeAt: one span around
// harness.AnalyzeAtPoint, whose per-condition registry the benchmark cannot
// reach to decompose.
func (t *tracer) analyzeAt(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, cond cell.OperatingCondition, ratio float64) (*core.Report, error) {
	req := t.request(oppointKey(name, scenarios))
	id := t.begin(spanAnalyzeAt, t.roundTrip(req), req)
	rep, err := harness.AnalyzeAtPoint(ctx, name, scenarios, opts, cond, ratio)
	t.end(id, 0)
	if err == nil {
		t.mu.Lock()
		if len(t.atEstimates) < maxPostPass {
			t.atEstimates = append(t.atEstimates, rep.Estimate)
		}
		t.mu.Unlock()
	}
	return rep, err
}

// errScenarioFailed reports a scenario failure in the decomposed pipeline,
// which implements the fault-free path only: no retries, no degraded runs.
var errScenarioFailed = errors.New("bench: scenario failed in the traced pipeline")

// pipeline is harness.AnalyzeWithOpts decomposed into its public stage
// calls, each recorded as a span under parent. Its estimate is
// byte-identical to the undecomposed call's on every fault-free run; runs
// asking for a Monte Carlo validation are not decomposed.
func (t *tracer) pipeline(ctx context.Context, name string, scenarios int, opts core.AnalyzeOpts, parent, req int) (*core.Report, error) {
	if opts.MCTrials > 0 {
		return harness.AnalyzeWithOpts(ctx, name, scenarios, opts)
	}
	b, err := mibench.ByName(name)
	if err != nil {
		return nil, err
	}
	fw, err := harness.SharedFramework()
	if err != nil {
		return nil, err
	}
	spec := harness.SpecFor(b, scenarios)
	n := spec.Scenarios
	cfgCPU := spec.CPUConfig
	if cfgCPU.MemWords == 0 {
		cfgCPU = cpu.DefaultConfig()
	}
	cfgCPU.SkipToggles = true

	var g *cfg.Graph
	if err := t.stage(spanBuild, parent, req, func() (int64, error) {
		var err error
		g, err = cfg.Build(spec.Prog)
		return 0, err
	}); err != nil {
		return nil, err
	}

	profiles := make([]*cfg.Profile, n)
	feats := make([]*errormodel.ScenarioFeatures, n)
	errs := make([]error, n)
	simStart := time.Now()
	pool.Run(ctx, n, opts.Workers, opts.FailFast, errs, func(ctx context.Context, s int) error {
		return t.stage(spanSim, parent, req, func() (int64, error) {
			m, err := cpu.New(spec.Prog, cfgCPU)
			if err != nil {
				return 0, err
			}
			defer m.Release()
			if spec.Setup != nil {
				if err := spec.Setup(m, s); err != nil {
					return 0, err
				}
			}
			pr := cfg.NewProfile(g)
			fc, _ := errormodel.NewFeatureCollector(len(spec.Prog.Insts), fw.Datapath)
			st, err := m.RunBatched(ctx, func(ds []cpu.DynInst) { pr.ObserveBatch(ds); fc.ObserveBatch(ds) })
			if err != nil {
				return st.Instructions, err
			}
			pr.InstCount = st.Instructions
			if spec.ScaleToInsts > 0 && pr.InstCount > 0 {
				if k := spec.ScaleToInsts / pr.InstCount; k > 1 {
					pr.Scale(k)
				}
			}
			profiles[s], feats[s] = pr, fc
			return st.Instructions, nil
		})
	})
	simulation := time.Since(simStart)
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(errScenarioFailed, err)
	}
	var totalInsts int64
	for _, pr := range profiles {
		totalInsts += pr.InstCount
	}

	trainStart := time.Now()
	var cc *errormodel.ControlChar
	if err := t.stage(spanControl, parent, req, func() (int64, error) {
		var err error
		cc, err = fw.Machine.CharacterizeControl(ctx, g, profiles[0], feats[0].Results)
		return 0, err
	}); err != nil {
		return nil, err
	}
	training := time.Since(trainStart)

	scens := make([]core.Scenario, n)
	pool.Run(ctx, n, opts.Workers, opts.FailFast, errs, func(ctx context.Context, s int) error {
		var cond *errormodel.Conditionals
		_ = t.stage(spanConditionals, parent, req, func() (int64, error) {
			cond = errormodel.BuildConditionals(g, cc, feats[s])
			return 0, nil
		})
		var marg *errormodel.Marginals
		err := t.stage(spanMarginals, parent, req, func() (int64, error) {
			var err error
			marg, err = errormodel.ComputeMarginals(g, profiles[s], cfg.ComputeSCC(g, profiles[s]), cond)
			return 0, err
		})
		scens[s] = core.Scenario{Profile: profiles[s], Marginals: marg, Cond: cond, Features: feats[s]}
		return err
	})
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(errScenarioFailed, err)
	}

	var est *core.Estimate
	if err := t.stage(spanEstimate, parent, req, func() (int64, error) {
		var err error
		est, err = core.NewEstimate(ctx, g, scens)
		return 0, err
	}); err != nil {
		return nil, err
	}
	return &core.Report{
		Name:         b.Name,
		Instructions: totalInsts / int64(n),
		BasicBlocks:  len(g.Blocks),
		Training:     training,
		Simulation:   simulation,
		Estimate:     est,
		Graph:        g,
		Scenarios:    scens,
	}, nil
}
