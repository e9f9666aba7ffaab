// Package cliutil holds the run-layer plumbing shared by the cmd/ tools:
// the flags several commands read, a root context wired to the -timeout flag
// and to SIGINT/SIGTERM, and the distinguished exit codes of the estimation
// CLIs. Each flag helper registers on the flag set it is given, so a command
// or subcommand declares exactly the flags it reads.
package cliutil

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/modelcache"
)

// Exit codes shared by the cmd/ tools: usage errors are distinguishable
// from analysis failures in scripts and CI.
const (
	// ExitFailure is an analysis (pipeline) failure.
	ExitFailure = 1
	// ExitUsage is a command-line usage error.
	ExitUsage = 2
)

// Scenarios registers -scenarios, the input datasets per benchmark.
func Scenarios(fs *flag.FlagSet) *int {
	return fs.Int("scenarios", harness.DefaultScenarios, "input datasets per benchmark")
}

// Timeout registers -timeout; pass its value to Context.
func Timeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
}

// Resilience registers -retries and -min-scenarios into opts.
func Resilience(fs *flag.FlagSet, opts *core.AnalyzeOpts) {
	fs.IntVar(&opts.Retries, "retries", 0, "per-scenario retries for transient failures")
	fs.IntVar(&opts.MinScenarios, "min-scenarios", 0,
		"proceed degraded if at least this many scenarios survive per benchmark (0 = all must succeed)")
}

// Engine registers -model-cache and -model-cache-dir, plus -voltage and
// -temp when withCondition is set, and returns a function that builds the
// harness engine they select after parsing. The cache defaults to on for the
// CLI tools, so repeated invocations skip the once-per-design training. A
// condition outside the cell library's range is a usage error (ExitUsage).
func Engine(fs *flag.FlagSet, withCondition bool) func() *harness.Engine {
	var cond cell.OperatingCondition
	if withCondition {
		fs.Float64Var(&cond.VoltageV, "voltage", 0, "supply voltage in volts (0 = nominal 1.1)")
		fs.Float64Var(&cond.TempC, "temp", 0, "die temperature in C (0 = nominal 25)")
	}
	enabled := fs.Bool("model-cache", true,
		"reuse calibrated+trained models from the on-disk cache")
	dir := fs.String("model-cache-dir", "",
		"model cache directory (default: the user cache dir)")
	return func() *harness.Engine {
		eng, err := harness.New(cond, modelcache.Dir(*enabled, *dir))
		if err != nil {
			log.Print(err)
			os.Exit(ExitUsage)
		}
		return eng
	}
}

// Context returns the root context of a CLI invocation: cancelled on
// SIGINT/SIGTERM so a Ctrl-C aborts in-flight scenario simulations cleanly,
// and bounded by timeout when positive (the -timeout flag). The returned
// cancel must be deferred.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}
