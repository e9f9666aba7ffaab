package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/faultinject"
	"tsperr/internal/isa"
	"tsperr/internal/montecarlo"
	"tsperr/internal/numeric"
)

// hook adapts a faultinject.Injector to the AnalyzeOpts hook signature.
func hook(in *faultinject.Injector) InjectFn {
	return func(ctx context.Context, ph Phase, s int) error {
		return in.Fire(ctx, faultinject.Point(ph), s)
	}
}

func resilienceSpec(t *testing.T, scenarios int) ProgramSpec {
	t.Helper()
	prog := isa.MustAssemble("sumloop", fwProg)
	return ProgramSpec{Prog: prog, Setup: fwSetup, Scenarios: scenarios}
}

// A panicking scenario must be recovered into a typed error and, being
// transient (panic-once), succeed on retry with no degradation.
func TestAnalyzePanicRecoveredAndRetried(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.PanicOnce(faultinject.Simulation, 2))
	rep, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 4), AnalyzeOpts{
		Retries: 1,
		Inject:  hook(inj),
	})
	if err != nil {
		t.Fatalf("panic should be recovered and retried, got %v", err)
	}
	if rep.Degraded || rep.FailedScenarios != 0 {
		t.Errorf("retried run must not be degraded: %+v", rep)
	}
	if len(rep.Scenarios) != 4 {
		t.Errorf("scenarios = %d", len(rep.Scenarios))
	}
	if got := inj.Fired(faultinject.Simulation); got != 1 {
		t.Errorf("panic fired %d times", got)
	}
}

// Without a retry budget the recovered panic must surface as a phase-tagged
// ScenarioError carrying the PanicError cause — not kill the process.
func TestAnalyzePanicBecomesTypedError(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.PanicOnce(faultinject.Marginals, 1))
	_, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 2), AnalyzeOpts{
		Inject: hook(inj),
	})
	if err == nil {
		t.Fatal("unretried panic must fail the run")
	}
	ses := ScenarioErrors(err)
	if len(ses) != 1 {
		t.Fatalf("want 1 scenario error, got %d (%v)", len(ses), err)
	}
	se := ses[0]
	if se.Scenario != 1 || se.Phase != PhaseMarginals {
		t.Errorf("wrong tag: scenario %d phase %s", se.Scenario, se.Phase)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause is not a PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic should carry a stack")
	}
}

// A run with MinScenarios satisfied completes with Degraded == true and the
// joined failures listing every failed scenario.
func TestAnalyzeDegradedRun(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1,
		faultinject.FailAlways(faultinject.Setup, 1),
		faultinject.FailAlways(faultinject.Marginals, 3),
	)
	rep, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 5), AnalyzeOpts{
		MinScenarios: 2,
		Inject:       hook(inj),
	})
	if err != nil {
		t.Fatalf("degraded run should succeed: %v", err)
	}
	if !rep.Degraded || rep.FailedScenarios != 2 {
		t.Fatalf("want degraded with 2 failures, got degraded=%v failed=%d", rep.Degraded, rep.FailedScenarios)
	}
	if len(rep.Scenarios) != 3 {
		t.Errorf("survivors = %d", len(rep.Scenarios))
	}
	if rep.Estimate == nil || rep.Estimate.LambdaMean <= 0 {
		t.Error("degraded run must still produce an estimate from survivors")
	}
	ses := ScenarioErrors(rep.Failures)
	if len(ses) != 2 {
		t.Fatalf("joined failures = %d, want 2: %v", len(ses), rep.Failures)
	}
	got := map[int]Phase{}
	for _, se := range ses {
		got[se.Scenario] = se.Phase
	}
	if got[1] != PhaseSetup || got[3] != PhaseMarginals {
		t.Errorf("failure tags wrong: %v", got)
	}
	if !errors.Is(rep.Failures, faultinject.ErrInjected) {
		t.Error("joined failures must preserve the injected cause")
	}
}

// tripProg sums a dataset whose first word sets its length, so datasets of
// different lengths retire different instruction sequences.
const tripProg = `
	lw   r2, 2048(r0)
	li   r1, 0
	li   r3, 0
loop:
	lw   r4, 2049(r1)
	add  r3, r3, r4
	addi r1, r1, 1
	blt  r1, r2, loop
	sw   r3, 4096(r0)
	halt
`

func tripSetup(c *cpu.CPU, scenario int) error {
	n := 10 + 40*scenario
	c.SetMem(2048, uint32(n))
	rng := numeric.NewRNG(uint64(scenario + 1))
	for i := 0; i < n; i++ {
		c.SetMem(uint32(2049+i), uint32(rng.Intn(1<<(8+4*scenario))))
	}
	return nil
}

// A degraded run validates each survivor on its own dataset. Scenario 0
// fails at setup, so the one survivor is dataset 1, and the Monte Carlo
// section must be a RunSharded over dataset 1 under dataset 1's
// conditionals — not dataset 0, which retires 160 fewer instructions,
// simulated under them.
func TestDegradedMCSimulatesSurvivorsOwnDatasets(t *testing.T) {
	f := testFramework(t)
	ctx := context.Background()
	prog := isa.MustAssemble("triploop", tripProg)
	inj := faultinject.New(1, faultinject.FailAlways(faultinject.Setup, 0))
	rep, err := f.AnalyzeWithOpts(ctx, "triploop", ProgramSpec{Prog: prog, Setup: tripSetup, Scenarios: 2}, AnalyzeOpts{
		MinScenarios: 1,
		Inject:       hook(inj),
		MCTrials:     512,
		MCSeed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || len(rep.Scenarios) != 1 || rep.MC == nil {
		t.Fatalf("want a degraded run on one survivor with a montecarlo section: degraded=%v survivors=%d mc=%v",
			rep.Degraded, len(rep.Scenarios), rep.MC)
	}
	want, err := montecarlo.RunSharded(ctx, montecarlo.Spec{
		Prog:   prog,
		Setup:  func(c *cpu.CPU, _ int) error { return tripSetup(c, 1) },
		Cond:   []*errormodel.Conditionals{rep.Scenarios[0].Cond},
		Trials: 512,
		Seed:   5,
	}, montecarlo.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MC.Mean != want.Stats.Mean || rep.MC.Std != want.Stats.Std() {
		t.Errorf("montecarlo mean %v std %v; dataset 1 under its own conditionals gives mean %v std %v",
			rep.MC.Mean, rep.MC.Std, want.Stats.Mean, want.Stats.Std())
	}
}

// When too few scenarios survive, the run aborts and the error joins every
// failing scenario, not just the first.
func TestAnalyzeMinScenariosUnmetJoinsAll(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1,
		faultinject.FailAlways(faultinject.Simulation, 0),
		faultinject.FailAlways(faultinject.Simulation, 2),
		faultinject.FailAlways(faultinject.Simulation, 3),
	)
	_, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 4), AnalyzeOpts{
		MinScenarios: 2,
		Inject:       hook(inj),
	})
	if err == nil {
		t.Fatal("1 survivor < MinScenarios 2 must abort")
	}
	ses := ScenarioErrors(err)
	if len(ses) != 3 {
		t.Fatalf("want all 3 failures joined, got %d: %v", len(ses), err)
	}
	want := map[int]bool{0: true, 2: true, 3: true}
	for _, se := range ses {
		if !want[se.Scenario] {
			t.Errorf("unexpected failing scenario %d", se.Scenario)
		}
		delete(want, se.Scenario)
	}
	if len(want) != 0 {
		t.Errorf("missing failures for scenarios %v", want)
	}
}

// A transient failure is retried within the budget and leaves no trace on
// the report.
func TestAnalyzeTransientRetried(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.FailOnce(faultinject.Setup, 0))
	rep, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 3), AnalyzeOpts{
		Retries: 2,
		Inject:  hook(inj),
	})
	if err != nil {
		t.Fatalf("transient failure within retry budget: %v", err)
	}
	if rep.Degraded {
		t.Error("retried transient must not degrade the run")
	}
	// Scenario 0's setup hook ran twice (fail + success), the others once.
	if calls := inj.Calls(faultinject.Setup); calls != 4 {
		t.Errorf("setup hook calls = %d, want 4", calls)
	}
}

// A cancelled context aborts a multi-scenario run promptly with a
// context-tagged error, even while scenarios are held in flight.
func TestAnalyzeCancellationAbortsPromptly(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.DelayEach(faultinject.Simulation, -1, 30*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.AnalyzeWithOpts(ctx, "sumloop", resilienceSpec(t, 6), AnalyzeOpts{
		Inject: hook(inj),
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled run must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error not context-tagged: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
	var se *ScenarioError
	if !errors.As(err, &se) {
		t.Errorf("cancellation should carry a phase tag: %v", err)
	}
}

// Cancellations are never retried, even with a generous retry budget.
func TestAnalyzeCancellationNotRetried(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.DelayEach(faultinject.Simulation, -1, 30*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.AnalyzeWithOpts(ctx, "sumloop", resilienceSpec(t, 2), AnalyzeOpts{
		Retries: 10,
		Inject:  hook(inj),
	})
	if err == nil {
		t.Fatal("cancelled run must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retries kept a cancelled run alive for %v", elapsed)
	}
}

// FailFast cancels the remaining scenarios as soon as one fails for real.
func TestAnalyzeFailFast(t *testing.T) {
	f := testFramework(t)
	inj := faultinject.New(1, faultinject.FailAlways(faultinject.Setup, 0))
	_, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 8), AnalyzeOpts{
		Workers:  1,
		FailFast: true,
		Inject:   hook(inj),
	})
	if err == nil {
		t.Fatal("fail-fast run must fail")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("missing injected cause: %v", err)
	}
	// With one worker and fail-fast, scenario 0 fails first and the pool
	// context is cancelled before later scenarios simulate.
	if calls := inj.Calls(faultinject.Simulation); calls != 0 {
		t.Errorf("later scenarios simulated %d times after fail-fast", calls)
	}
}

// The cpu runaway guard must surface as a typed, phase-tagged error through
// the full pipeline — and so must a context deadline hitting the same loop;
// whichever fires first, the run ends promptly instead of hanging.
func TestAnalyzeRunawayGuardVsCancellation(t *testing.T) {
	f := testFramework(t)
	runaway := isa.MustAssemble("runaway", `
	loop:
		addi r1, r1, 1
		beq  r0, r0, loop
	`)
	spec := ProgramSpec{
		Prog:      runaway,
		Scenarios: 2,
		CPUConfig: cpu.Config{MemWords: 1 << 10, MaxInsts: 20_000, LoadUseStall: 1, BranchPenalty: 2},
	}

	// Instruction limit fires first: typed ErrInstLimit, simulation phase.
	_, err := f.Analyze(context.Background(), "runaway", spec)
	if err == nil {
		t.Fatal("runaway program must fail")
	}
	if !errors.Is(err, cpu.ErrInstLimit) {
		t.Errorf("want ErrInstLimit cause, got %v", err)
	}
	for _, se := range ScenarioErrors(err) {
		if se.Phase != PhaseSimulation {
			t.Errorf("runaway tagged %s, want %s", se.Phase, PhaseSimulation)
		}
	}

	// Context fires first: huge limit, tight deadline.
	spec.CPUConfig.MaxInsts = 1 << 62
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = f.Analyze(ctx, "runaway", spec)
	if err == nil {
		t.Fatal("deadline must abort the unbounded loop")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want deadline cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline abort took %v", elapsed)
	}
}

// The bounded pool must produce results identical to sequential execution
// (determinism does not depend on worker count).
func TestAnalyzeWorkerCountInvariance(t *testing.T) {
	f := testFramework(t)
	seq, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 4), AnalyzeOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := f.AnalyzeWithOpts(context.Background(), "sumloop", resilienceSpec(t, 4), AnalyzeOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Estimate.LambdaMean != par.Estimate.LambdaMean || seq.Estimate.LambdaStd != par.Estimate.LambdaStd {
		t.Errorf("worker count changed the estimate: %v/%v vs %v/%v",
			seq.Estimate.LambdaMean, seq.Estimate.LambdaStd,
			par.Estimate.LambdaMean, par.Estimate.LambdaStd)
	}
}

// TestRetryDelayDoublesToCap pins the scenario retry backoff: 2 ms before
// the first retry, doubling per retry up to the 250 ms cap.
func TestRetryDelayDoublesToCap(t *testing.T) {
	want := []time.Duration{2, 4, 8, 16, 32, 64, 128, 250, 250}
	for i, w := range want {
		if got := retryDelay(i + 1); got != w*time.Millisecond {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := retryDelay(1000); got != retryBackoffCap {
		t.Errorf("retryDelay(1000) = %v, want the cap", got)
	}
}

// failAfter returns a scenario attempt that fails with err on its first
// failures attempts and then succeeds, counting its calls into calls. It
// checks that withRetry numbers the attempts from 1.
func failAfter(t *testing.T, failures int, err error, calls *int) func(int) *ScenarioError {
	return func(n int) *ScenarioError {
		*calls++
		if n != *calls {
			t.Fatalf("attempt number %d, want %d", n, *calls)
		}
		if n <= failures {
			return &ScenarioError{Err: err}
		}
		return nil
	}
}

// TestWithRetryRetriesUntilSuccess: a failed attempt is retried, and the
// first success ends the loop with no error.
func TestWithRetryRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := withRetry(context.Background(), AnalyzeOpts{Retries: 4}, failAfter(t, 2, errors.New("transient"), &calls))
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want success on attempt 3", err, calls)
	}
}

// TestWithRetryExhaustsRetries: an attempt that keeps failing is tried
// opts.Retries+1 times and its error is returned.
func TestWithRetryExhaustsRetries(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := withRetry(context.Background(), AnalyzeOpts{Retries: 2}, failAfter(t, 10, boom, &calls))
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want boom after 3 attempts", err, calls)
	}
}

// TestWithRetryContextErrorIsTerminal: a context error in the attempt's
// error, bare or wrapped, ends the loop at once.
func TestWithRetryContextErrorIsTerminal(t *testing.T) {
	for _, cerr := range []error{
		context.DeadlineExceeded,
		errors.Join(errors.New("scenario 3 failed"), context.Canceled),
	} {
		calls := 0
		err := withRetry(context.Background(), AnalyzeOpts{Retries: 4}, failAfter(t, 10, cerr, &calls))
		if !errors.Is(err, cerr) || calls != 1 {
			t.Errorf("attempt error %v: err = %v, calls = %d; want an immediate stop", cerr, err, calls)
		}
	}
}

// TestWithRetryDeadContextSkipsBackoff: when the context is already done
// as an attempt fails, withRetry neither sleeps nor retries; it returns the
// attempt's error joined with the context's.
func TestWithRetryDeadContextSkipsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	calls := 0
	err := withRetry(ctx, AnalyzeOpts{Retries: 4}, failAfter(t, 10, boom, &calls))
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want boom joined with context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("%d attempts, want 1", calls)
	}
}

// TestWithRetryCancelledDuringBackoff cancels the context while withRetry
// sleeps before a retry: it returns at once with the attempt's error joined
// with the cancellation, and makes no further attempt.
func TestWithRetryCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	const last = 8 // the backoff after attempt 8 is the 250 ms cap
	calls := 0
	err := withRetry(ctx, AnalyzeOpts{Retries: 100}, func(n int) *ScenarioError {
		calls++
		if n == last {
			time.AfterFunc(10*time.Millisecond, cancel)
		}
		return &ScenarioError{Err: boom}
	})
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want boom joined with context.Canceled", err)
	}
	if calls != last {
		t.Errorf("%d attempts, want %d: the backoff was not cut short", calls, last)
	}
}
