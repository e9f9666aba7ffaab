package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/pool"
)

// Framework ties the whole flow of Figures 1 and 2 together: netlist
// generation and calibration, datapath model training, per-program control
// characterization, instrumented simulation over input scenarios, marginal
// probability computation, and the Section 5 statistics.
type Framework struct {
	Machine  *errormodel.Machine
	Datapath *errormodel.DatapathModel

	// periodModels keeps the datapath models AnalyzeAtRatio trained at
	// periods other than the working one (see datapathAt).
	periodModels *pool.Memo[uint64, *errormodel.DatapathModel]
}

// newFramework assembles a framework from its trained parts.
func newFramework(m *errormodel.Machine, dp *errormodel.DatapathModel) *Framework {
	return &Framework{
		Machine:      m,
		Datapath:     dp,
		periodModels: pool.NewMemo[uint64, *errormodel.DatapathModel](periodModelLimit),
	}
}

// NewFramework builds and trains the machine-dependent parts (everything
// that does not depend on the analyzed program).
func NewFramework(opts errormodel.Options) (*Framework, error) {
	return NewFrameworkContext(context.Background(), opts)
}

// NewFrameworkContext is NewFramework under a context: once ctx is done, no
// further unit calibration or datapath measurement starts and the call
// returns ctx's error. Work already running finishes first.
func NewFrameworkContext(ctx context.Context, opts errormodel.Options) (*Framework, error) {
	m, err := errormodel.NewMachineContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	dp, err := m.TrainDatapath(ctx)
	if err != nil {
		return nil, err
	}
	return newFramework(m, dp), nil
}

// ProgramSpec describes one benchmark to analyze.
type ProgramSpec struct {
	// Prog is the assembled program.
	Prog *isa.Program
	// Setup seeds machine state (memory, registers) for a scenario; the
	// scenario index selects the input dataset.
	Setup func(c *cpu.CPU, scenario int) error
	// Scenarios is the number of input datasets simulated; their spread is
	// the data-variation axis of the error-rate distribution.
	Scenarios int
	// ScaleToInsts, when positive, scales each scenario's execution counts
	// so the total dynamic instruction count approximates this value,
	// emulating the paper's large MiBench datasets (the Section 5
	// statistics consume only the counts, so this is exact, not an
	// approximation, for count-linear workloads).
	ScaleToInsts int64
	// CPUConfig overrides the machine configuration; zero value uses
	// cpu.DefaultConfig().
	CPUConfig cpu.Config
}

// InjectFn is a fault-injection hook evaluated at instrumented pipeline
// points (see internal/faultinject); a non-nil return is treated as that
// phase failing for that scenario, and a panic exercises worker recovery.
// Production runs leave it nil.
type InjectFn func(ctx context.Context, phase Phase, scenario int) error

// AnalyzeOpts tunes the resilience of one Analyze run. The zero value is
// strict: every scenario must succeed, transient failures are retried never,
// and the pool is sized to GOMAXPROCS.
type AnalyzeOpts struct {
	// Workers bounds the number of concurrently simulated scenarios;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Retries is how many times a failed scenario is re-attempted (on top
	// of the first try) before it counts as failed. Context cancellations
	// are never retried.
	Retries int
	// MinScenarios, when positive, lets a run proceed in degraded mode if
	// at least this many scenarios survive: the Report is computed from the
	// survivors, carries Degraded == true, and joins every scenario failure
	// in Failures. Zero keeps the strict all-must-succeed behavior.
	MinScenarios int
	// FailFast cancels in-flight and pending scenarios as soon as one
	// fails, trading diagnostics breadth for latency.
	FailFast bool
	// Inject is the fault-injection hook (nil in production).
	Inject InjectFn
	// MCTrials, when positive, appends a sharded Monte Carlo validation of
	// the analytic estimate to the report (Report.MC): MCTrials simulated
	// executions, spread round-robin over the surviving scenarios and split
	// into fixed-size chunks over the same bounded worker pool.
	MCTrials int
	// MCSeed seeds the validation run (the default 0 is a valid seed; the
	// run is deterministic either way).
	MCSeed uint64
}

// A failed scenario attempt waits retryBackoff before its first retry,
// doubling per retry up to retryBackoffCap.
const (
	retryBackoff    = 2 * time.Millisecond
	retryBackoffCap = 250 * time.Millisecond
)

// Report is one row of Table 2 plus everything needed to draw the program's
// Figure 3 curve.
type Report struct {
	Name         string
	Instructions int64
	BasicBlocks  int
	Training     time.Duration
	Simulation   time.Duration
	Estimate     *Estimate
	Graph        *cfg.Graph
	// Scenarios holds the scenarios that survived; in a degraded run this
	// is fewer than the ProgramSpec requested.
	Scenarios []Scenario
	// Degraded reports that some scenarios failed but AnalyzeOpts
	// permitted the run to proceed on the survivors.
	Degraded bool
	// FailedScenarios is how many scenarios were dropped from the estimate.
	FailedScenarios int
	// Failures joins the ScenarioError of every dropped scenario (nil for
	// a clean run).
	Failures error
	// MC carries the Monte Carlo validation of the estimate when
	// AnalyzeOpts.MCTrials requested one (nil otherwise).
	MC *MCValidation
	// Tier is TierExact or TierSurrogate on reports produced by the two-tier
	// service; the analysis pipeline itself leaves it empty (read as exact)
	// so pre-surrogate wire bytes are unchanged.
	Tier string
	// Surrogate carries the fast-tier prediction metadata on surrogate-tier
	// reports (nil on exact reports).
	Surrogate *SurrogateMeta

	// scenarioCount and wireFailures preserve the wire-schema scenario count
	// and flattened failure strings across a JSON round trip: a client that
	// decodes a report cannot reconstruct the Scenario values or the joined
	// error tree, but its re-marshal must still emit the server's exact
	// bytes. MarshalJSON falls back to them when the rich fields are empty.
	scenarioCount int
	wireFailures  []string
}

// scenarioRaw is the output of one scenario's instrumented simulation.
type scenarioRaw struct {
	profile *cfg.Profile
	feats   *errormodel.ScenarioFeatures
	// unscaled is the pre-Scale() profile, retained only when a Monte Carlo
	// validation was requested on a scaled run: the simulation executes the
	// real (unscaled) program, so its reference estimate must too.
	unscaled *cfg.Profile
}

// Analyze runs the full flow on one program with strict failure semantics
// (any scenario failure aborts). It honors ctx cancellation and deadlines
// between pipeline phases and inside the scenario simulations.
func (f *Framework) Analyze(ctx context.Context, name string, spec ProgramSpec) (*Report, error) {
	return f.AnalyzeWithOpts(ctx, name, spec, AnalyzeOpts{})
}

// AnalyzeWithOpts is Analyze with explicit resilience options: bounded
// worker-pool concurrency, per-scenario retries with backoff, panic
// recovery, fail-fast, and graceful degradation onto surviving scenarios.
func (f *Framework) AnalyzeWithOpts(ctx context.Context, name string, spec ProgramSpec, opts AnalyzeOpts) (*Report, error) {
	return f.analyze(ctx, name, spec, opts, f.Machine.WorkingPeriodPs, f.Datapath)
}

// analyze is AnalyzeWithOpts at clock period period, with dp the datapath
// model trained at that period. It writes no field of f, so analyses at any
// periods may share one framework concurrently.
func (f *Framework) analyze(ctx context.Context, name string, spec ProgramSpec, opts AnalyzeOpts, period float64, dp *errormodel.DatapathModel) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Scenarios <= 0 {
		return nil, fmt.Errorf("core: %s: need at least one scenario", name)
	}
	cfgCPU := spec.CPUConfig
	if cfgCPU.MemWords == 0 {
		cfgCPU = cpu.DefaultConfig()
	}
	if err := ctx.Err(); err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseBuild, Err: err}
	}
	g, err := cfg.Build(spec.Prog)
	if err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseBuild, Err: err}
	}

	rep := &Report{Name: name, Graph: g, BasicBlocks: len(g.Blocks)}

	// ---- Simulation phase: instrumented runs over the input scenarios.
	// Scenarios are independent (each gets its own machine, profile, and
	// feature collector), so they run on a bounded worker pool; results are
	// deterministic because each scenario's seeding depends only on its
	// index. Workers recover panics into typed errors and retry transient
	// failures, and every scenario's failure is collected rather than only
	// the first. ----
	simStart := time.Now()
	raws := make([]*scenarioRaw, spec.Scenarios)
	errs := make([]error, spec.Scenarios)
	keepUnscaled := opts.MCTrials > 0
	ft := dp.FailTable()
	f.runPool(ctx, spec.Scenarios, opts, errs, func(poolCtx context.Context, s int) error {
		return withRetry(poolCtx, opts, func(attempt int) *ScenarioError {
			raw, serr := f.simScenario(poolCtx, name, spec, cfgCPU, g, s, opts.Inject, keepUnscaled, ft)
			if serr != nil {
				serr.Attempts = attempt
				return serr
			}
			raws[s] = raw
			return nil
		})
	})
	rep.Simulation = time.Since(simStart)
	if err := f.gate(ctx, name, PhaseSimulation, spec.Scenarios, errs, opts); err != nil {
		return nil, err
	}

	first := -1
	var totalInsts int64
	survivors := 0
	for s := range raws {
		if errs[s] != nil || raws[s] == nil {
			continue
		}
		if first < 0 {
			first = s
		}
		survivors++
		totalInsts += raws[s].profile.InstCount
	}
	rep.Instructions = totalInsts / int64(survivors)

	// ---- Training phase: control-network DTS characterization (gate level,
	// once per basic block, as the paper emphasizes). ----
	if err := ctx.Err(); err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseControl, Err: err}
	}
	trainStart := time.Now()
	cc, err := protect(func() (*errormodel.ControlChar, error) {
		return f.Machine.CharacterizeControlWorkers(ctx, g, raws[first].profile, raws[first].feats.Results, 0, period)
	})
	if err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseControl, Err: err}
	}
	rep.Training = time.Since(trainStart)

	// ---- Error model: conditionals and marginals per surviving scenario,
	// again on the bounded pool (the per-SCC linear solves dominate). ----
	scenarios := make([]*Scenario, spec.Scenarios)
	f.runPool(ctx, spec.Scenarios, opts, errs, func(poolCtx context.Context, s int) error {
		if errs[s] != nil || raws[s] == nil {
			return nil // already failed in simulation; keep the original error
		}
		return withRetry(poolCtx, opts, func(attempt int) *ScenarioError {
			sc, serr := f.marginalScenario(poolCtx, name, g, cc, raws[s], s, opts.Inject)
			if serr != nil {
				serr.Attempts = attempt
				return serr
			}
			scenarios[s] = sc
			return nil
		})
	})
	if err := f.gate(ctx, name, PhaseMarginals, spec.Scenarios, errs, opts); err != nil {
		return nil, err
	}

	surviving := make([]Scenario, 0, spec.Scenarios)
	// unscaledProfiles mirrors surviving with each scenario's pre-scaling
	// profile (nil where Scale() did not run), so a requested Monte Carlo
	// validation compares against an estimate of the program that is actually
	// simulated.
	var unscaledProfiles []*cfg.Profile
	// datasets maps each survivor to its scenario index, the dataset a Monte
	// Carlo validation sets the machine up with.
	var datasets []int
	var failures []error
	for s := range scenarios {
		if errs[s] != nil {
			failures = append(failures, errs[s])
			continue
		}
		surviving = append(surviving, *scenarios[s])
		datasets = append(datasets, s)
		if keepUnscaled {
			unscaledProfiles = append(unscaledProfiles, raws[s].unscaled)
		}
	}
	rep.Scenarios = surviving
	if len(failures) > 0 {
		rep.Degraded = true
		rep.FailedScenarios = len(failures)
		rep.Failures = errors.Join(failures...)
		// Recompute the per-scenario instruction average over survivors only.
		totalInsts = 0
		for _, sc := range surviving {
			totalInsts += sc.Profile.InstCount
		}
		rep.Instructions = totalInsts / int64(len(surviving))
	}

	if err := ctx.Err(); err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseEstimate, Err: err}
	}
	est, err := NewEstimate(ctx, g, surviving)
	if err != nil {
		return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseEstimate, Err: err}
	}
	rep.Estimate = est

	if opts.MCTrials > 0 {
		ref, unscaled := mcRefScenarios(surviving, unscaledProfiles)
		mc, err := f.validateMC(ctx, spec, cfgCPU, g, est, ref, datasets, unscaled, opts)
		if err != nil {
			return nil, &ScenarioError{Benchmark: name, Scenario: -1, Phase: PhaseMonteCarlo, Err: err}
		}
		rep.MC = mc
	}
	return rep, nil
}

// simScenario runs one scenario's instrumented simulation under the datapath
// failure table ft. All failures come back as a phase-tagged ScenarioError;
// panics are recovered by the caller's retry wrapper via protectScenario.
func (f *Framework) simScenario(ctx context.Context, name string, spec ProgramSpec, cfgCPU cpu.Config, g *cfg.Graph, s int, inject InjectFn, keepUnscaled bool, ft *cpu.FailTable) (raw *scenarioRaw, serr *ScenarioError) {
	phase := PhaseSetup
	defer recoverScenario(name, s, &phase, &serr)
	fail := func(err error) *ScenarioError {
		return &ScenarioError{Benchmark: name, Scenario: s, Phase: phase, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, fail(err)
	}
	if inject != nil {
		if err := inject(ctx, phase, s); err != nil {
			return nil, fail(err)
		}
	}
	machine, err := cpu.New(spec.Prog, cfgCPU)
	if err != nil {
		return nil, fail(err)
	}
	defer machine.Release()
	if spec.Setup != nil {
		if err := spec.Setup(machine, s); err != nil {
			return nil, fail(err)
		}
	}
	phase = PhaseSimulation
	if inject != nil {
		if err := inject(ctx, phase, s); err != nil {
			return nil, fail(err)
		}
	}
	// The tally run accumulates, inside the interpreter loop, exactly what
	// the profile and the datapath features read.
	t, st, err := machine.RunTally(ctx, ft)
	if err != nil {
		return nil, fail(err)
	}
	pr := cfg.FromTally(g, t, st.Instructions)
	feats := errormodel.FeaturesFromTally(t)
	var unscaled *cfg.Profile
	if spec.ScaleToInsts > 0 && pr.InstCount > 0 {
		if k := spec.ScaleToInsts / pr.InstCount; k > 1 {
			if keepUnscaled {
				unscaled = pr.Clone()
			}
			pr.Scale(k)
		}
	}
	return &scenarioRaw{profile: pr, feats: feats, unscaled: unscaled}, nil
}

// marginalScenario solves one scenario's conditionals and marginals.
func (f *Framework) marginalScenario(ctx context.Context, name string, g *cfg.Graph, cc *errormodel.ControlChar, raw *scenarioRaw, s int, inject InjectFn) (sc *Scenario, serr *ScenarioError) {
	phase := PhaseMarginals
	defer recoverScenario(name, s, &phase, &serr)
	fail := func(err error) *ScenarioError {
		return &ScenarioError{Benchmark: name, Scenario: s, Phase: phase, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return nil, fail(err)
	}
	if inject != nil {
		if err := inject(ctx, phase, s); err != nil {
			return nil, fail(err)
		}
	}
	cond := errormodel.BuildConditionals(g, cc, raw.feats)
	scc := cfg.ComputeSCC(g, raw.profile)
	marg, err := errormodel.ComputeMarginals(g, raw.profile, scc, cond)
	if err != nil {
		return nil, fail(err)
	}
	return &Scenario{Profile: raw.profile, Marginals: marg, Cond: cond, Features: raw.feats}, nil
}

// recoverScenario converts a scenario panic into a phase-tagged
// ScenarioError carrying the stack, so one bad scenario cannot kill the
// process.
func recoverScenario(name string, s int, phase *Phase, serr **ScenarioError) {
	if r := recover(); r != nil {
		*serr = &ScenarioError{
			Benchmark: name, Scenario: s, Phase: *phase,
			Err: &PanicError{Value: r, Stack: debug.Stack()},
		}
	}
}

// protect runs a non-scenario pipeline step, converting a panic into an
// error.
func protect[T any](fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// runPool executes work(s) for every scenario index on the shared bounded
// worker pool (internal/pool), recording failures into errs. With FailFast
// set, the first failure cancels the pool context so in-flight simulations
// abort at their next context poll and pending scenarios are marked
// cancelled. Scenario panics are already converted to errors by the per-phase
// recover wrappers, so the pool's own panic recovery is a second line of
// defense only.
func (f *Framework) runPool(ctx context.Context, n int, opts AnalyzeOpts, errs []error, work func(context.Context, int) error) {
	pool.Run(ctx, n, opts.Workers, opts.FailFast, errs, work)
}

// retryDelay returns the backoff before retry n (1-based).
func retryDelay(n int) time.Duration {
	d := retryBackoff
	for i := 1; i < n && d < retryBackoffCap; i++ {
		d <<= 1
	}
	return min(d, retryBackoffCap)
}

// withRetry runs one scenario attempt, retrying failures up to opts.Retries
// times after retryDelay's backoff. A context cancellation or deadline
// expiry, whether observed on ctx or wrapped in the attempt's error, is
// terminal at once: retrying cancelled work only delays shutdown. When the
// context is done before or during the backoff, the attempt's error is
// returned joined with the context's.
func withRetry(ctx context.Context, opts AnalyzeOpts, attempt func(n int) *ScenarioError) error {
	for n := 1; ; n++ {
		serr := attempt(n)
		if serr == nil {
			return nil
		}
		if n > opts.Retries || errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded) {
			return serr
		}
		if err := ctx.Err(); err != nil {
			return errors.Join(serr, err)
		}
		t := time.NewTimer(retryDelay(n))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return errors.Join(serr, ctx.Err())
		}
	}
}

// gate applies the failure policy after phase, which just ran: a clean pass
// proceeds, a cancelled context always aborts (tagged with phase), and
// otherwise the run continues only when the surviving-scenario count
// satisfies opts.MinScenarios (strict mode, MinScenarios == 0, tolerates
// nothing). On abort every collected scenario failure is joined, so the
// caller sees all failing scenarios, not just the first.
func (f *Framework) gate(ctx context.Context, name string, phase Phase, n int, errs []error, opts AnalyzeOpts) error {
	var failures []error
	for _, e := range errs {
		if e != nil {
			failures = append(failures, e)
		}
	}
	if err := ctx.Err(); err != nil {
		failures = append(failures,
			&ScenarioError{Benchmark: name, Scenario: -1, Phase: phase, Err: err})
		return errors.Join(failures...)
	}
	if len(failures) == 0 {
		return nil
	}
	survivors := n - len(failures)
	if opts.MinScenarios > 0 && survivors >= opts.MinScenarios {
		return nil // degrade gracefully; the report will carry the failures
	}
	return errors.Join(failures...)
}

// PerfModel returns the paper's performance model at this machine's
// operating point.
func (f *Framework) PerfModel() cpu.PerfModel {
	m := cpu.PaperPerfModel()
	m.FreqRatio = f.Machine.Opts.WorkingRatio
	return m
}
