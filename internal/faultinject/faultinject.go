// Package faultinject provides deterministic fault injection for the
// estimation pipeline. Tests arm an Injector with rules bound to pipeline
// hook points (scenario setup, simulation, marginal computation) and hand
// its hook to core.AnalyzeOpts; the run layer then observes reproducible
// failures — returned errors, panics, or delays — without any randomness
// leaking into production code paths. Probabilistic rules draw from a seeded
// RNG so even "random" fault storms replay identically.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tsperr/internal/numeric"
)

// ErrInjected is the base cause of every injected (non-panic) failure;
// retry layers treat it like any other transient error.
var ErrInjected = errors.New("faultinject: injected fault")

// Point names a pipeline hook location. The values mirror core.Phase so a
// rule's Point can be compared directly against the phase tag of the
// resulting ScenarioError.
type Point string

const (
	// Setup fires inside per-scenario machine seeding.
	Setup Point = "setup"
	// Simulation fires before the instrumented program run.
	Simulation Point = "simulation"
	// Marginals fires before the per-scenario marginal solve.
	Marginals Point = "marginals"
)

// Mode selects what an armed rule does when it fires.
type Mode int

const (
	// Fail returns an error wrapping ErrInjected (or Rule.Err).
	Fail Mode = iota
	// Panic panics with a PanicValue, exercising worker-pool recovery.
	Panic
	// Delay sleeps for Rule.Delay (context-aware), then proceeds normally;
	// used to hold scenarios in flight while a test cancels the run.
	Delay
)

func (m Mode) String() string {
	switch m {
	case Fail:
		return "fail"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Rule arms one fault at one hook point.
type Rule struct {
	// Point is the hook location the rule listens on.
	Point Point
	// Scenario restricts the rule to one scenario index; -1 matches all.
	Scenario int
	// Mode is the injected behavior.
	Mode Mode
	// Times bounds how often the rule fires before disarming; 0 = always.
	// Times: 1 yields the classic fail-once transient that a retry absorbs.
	Times int
	// Prob, when in (0, 1), fires the rule only with this probability per
	// matching call, drawn from the Injector's seeded RNG; 0 means always.
	Prob float64
	// Delay is the injected latency for Mode Delay.
	Delay time.Duration
	// Err overrides the returned error for Mode Fail.
	Err error
}

// FailOnce returns a transient rule: the first matching call errors, every
// later one succeeds (the canonical retryable fault).
func FailOnce(p Point, scenario int) Rule {
	return Rule{Point: p, Scenario: scenario, Mode: Fail, Times: 1}
}

// FailAlways returns a permanent failure rule.
func FailAlways(p Point, scenario int) Rule {
	return Rule{Point: p, Scenario: scenario, Mode: Fail}
}

// PanicOnce returns a rule whose first matching call panics.
func PanicOnce(p Point, scenario int) Rule {
	return Rule{Point: p, Scenario: scenario, Mode: Panic, Times: 1}
}

// DelayEach returns a rule that delays every matching call by d.
func DelayEach(p Point, scenario int, d time.Duration) Rule {
	return Rule{Point: p, Scenario: scenario, Mode: Delay, Delay: d}
}

// PanicValue is the value an armed Panic rule panics with.
type PanicValue struct {
	Point    Point
	Scenario int
}

func (v PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s scenario %d", v.Point, v.Scenario)
}

// Injector evaluates rules at hook points. It is safe for concurrent use by
// the worker pool.
type Injector struct {
	mu sync.Mutex
	// rng drives probabilistic rules; guarded by mu.
	rng *numeric.RNG
	// fired counts firings per rule index; guarded by mu.
	fired map[int]int
	// calls counts hook evaluations per point; guarded by mu.
	calls map[Point]int
	// rules is the armed rule set; guarded by mu.
	rules []Rule
}

// New arms an injector. The seed only matters for rules with Prob set; any
// fixed seed makes the whole fault schedule deterministic.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		rng:   numeric.NewRNG(seed),
		rules: rules,
		fired: map[int]int{},
		calls: map[Point]int{},
	}
}

// Match performs the rule-firing bookkeeping for a hook point — first armed
// rule wins, Times budgets and Prob draws consumed — and returns the fired
// rule without executing its behavior. Fire is Match plus the standard
// fail/panic/delay semantics; injection sites with richer behaviors (the
// network Transport's truncation) call Match and act themselves.
func (in *Injector) Match(p Point, scenario int) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[p]++
	for i := range in.rules {
		r := &in.rules[i]
		if r.Point != p || (r.Scenario != -1 && r.Scenario != scenario) {
			continue
		}
		if r.Times > 0 && in.fired[i] >= r.Times {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		in.fired[i]++
		return *r, true
	}
	return Rule{}, false
}

// Fire evaluates the hook point for a scenario: it returns an injected
// error, panics, or delays according to the first matching armed rule, and
// returns nil when nothing fires. Delay respects ctx and surfaces ctx.Err()
// if cancelled mid-sleep.
func (in *Injector) Fire(ctx context.Context, p Point, scenario int) error {
	r, ok := in.Match(p, scenario)
	if !ok {
		return nil
	}
	hit := &r
	switch hit.Mode {
	case Fail:
		if hit.Err != nil {
			return fmt.Errorf("%w at %s scenario %d: %w", ErrInjected, p, scenario, hit.Err)
		}
		return fmt.Errorf("%w at %s scenario %d", ErrInjected, p, scenario)
	case Panic:
		panic(PanicValue{Point: p, Scenario: scenario})
	case Delay:
		if ctx == nil {
			ctx = context.Background()
		}
		t := time.NewTimer(hit.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Calls reports how many times a hook point was evaluated (fired or not),
// letting tests assert retry counts and early-abort behavior.
func (in *Injector) Calls(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[p]
}

// Fired reports the total firings across all rules at a point.
func (in *Injector) Fired(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for i, r := range in.rules {
		if r.Point == p {
			n += in.fired[i]
		}
	}
	return n
}
