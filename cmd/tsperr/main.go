// Command tsperr runs the full error-rate estimation framework on one
// benchmark and reports the Table 2 row, the headline distribution numbers,
// and the resulting timing-speculation verdict.
//
// Usage:
//
//	tsperr [-scenarios N] [-timeout D] [-retries N] [-min-scenarios N]
//	       [-mc-trials N] [-mc-seed S] [-voltage V] [-temp C] [-json]
//	       [-explain] <benchmark>
//	tsperr -batch suite.json [-json] [flags]
//	tsperr -surrogate-eval [-surrogate-holdout F] [-surrogate-seed S] [-json]
//	tsperr -oppoint -target F [-min-ratio R] [-max-ratio R] [-steps N] <benchmark>
//
// Run with no arguments to list the available benchmarks. With -batch, the
// argument is a suite file ({"entries":[{"benchmark":...,"scenarios":...}]})
// run through the shared framework with identical entries computed once;
// results stream as text rows, or -json emits one document reusing the
// shared core.Report encoding per entry. -mc-trials appends a sharded Monte
// Carlo validation of the analytic distribution to the report.
//
// -voltage/-temp evaluate at an explicit operating condition (the cell-delay
// scaling law inflates delays and variability as the supply droops or the die
// heats); zero means the nominal 1.1 V / 25 C corner. -oppoint bisects the
// fastest frequency ratio whose error rate stays at or below -target at that
// condition and prints the resulting operating point (or -json, one document
// mirroring a point of tsperrd's /v1/oppoint response).
//
// Exit status is 2 for usage errors and 1 for analysis failures (in batch
// mode: if any entry failed); on failure every failing scenario is reported
// with its pipeline phase, not just the first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
)

// oppointUsage is the -oppoint usage line, printed with exit status 2.
const oppointUsage = "usage: tsperr -oppoint -target F [-min-ratio R] [-max-ratio R] [-steps N] [-voltage V] [-temp C] [-json] <benchmark>"

// splitLines breaks a FailureDetail block into lines for indentation.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

const explainText = `The framework follows the flow of Figures 1 and 2 of the paper:

 1. Netlist generation & calibration — a 6-stage control network (decoder
    derived from the TS-V8 opcode table) and gate-level datapath units are
    generated and delay-calibrated so the point of first failure sits at
    1.13x the STA frequency; the working point is 1.15x.
 2. Datapath model training — Algorithm 1 measures the DTS of the data
    endpoints while targeted vectors activate carry chains and shifter
    layers of known depth.
 3. Control characterization — per basic block, per incoming edge, the
    control network is simulated at gate level and Algorithm 2 extracts each
    instruction's control DTS; a nop-instrumented pass yields the
    error-conditioned probabilities (Section 4.1).
 4. Instrumented simulation — the program runs once per input scenario; the
    trained datapath model converts operand-dependent activation depths into
    conditional error probabilities.
 5. Marginal probabilities — Equations (1) and (2) plus one linear system per
    CFG strongly connected component (Section 4.2).
 6. Statistics — the error count is approximated Poisson(lambda) with lambda
    approximately Normal; Chen-Stein and Stein bounds quantify the
    approximation error (Section 5); Equation (14) gives the CDF.`

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsperr: ")
	scenarios := flag.Int("scenarios", harness.DefaultScenarios, "input datasets")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of the text summary")
	explain := flag.Bool("explain", false, "print the estimation-flow walkthrough and exit")
	timeout := flag.Duration("timeout", 0, "abort the analysis after this duration (0 = none)")
	retries := flag.Int("retries", 0, "per-scenario retries for transient failures")
	minScenarios := flag.Int("min-scenarios", 0,
		"proceed degraded if at least this many scenarios survive (0 = all must succeed)")
	mcTrials := flag.Int("mc-trials", 0,
		"validate the analytic distribution with this many sharded Monte Carlo trials (0 = off)")
	mcSeed := flag.Uint64("mc-seed", 0, "Monte Carlo seed (0 = the pipeline default)")
	batchPath := flag.String("batch", "",
		"run a JSON suite file instead of one benchmark; identical entries compute once")
	surrogateEval := flag.Bool("surrogate-eval", false,
		"evaluate the ML surrogate fast tier: label the suite exactly, train on a split, print the coverage-vs-accuracy curve")
	surrogateHoldout := flag.Float64("surrogate-holdout", 0,
		"held-out fraction for -surrogate-eval (0 = 0.3 default)")
	surrogateSeed := flag.Uint64("surrogate-seed", 42, "train/test split seed for -surrogate-eval")
	voltage := flag.Float64("voltage", 0, "supply voltage in volts (0 = nominal 1.1)")
	temp := flag.Float64("temp", 0, "die temperature in C (0 = nominal 25)")
	oppointMode := flag.Bool("oppoint", false,
		"bisect the fastest frequency ratio meeting -target at the given condition")
	target := flag.Float64("target", 0.01, "target error rate for -oppoint (fraction, not percent)")
	minRatio := flag.Float64("min-ratio", 1.0, "lower frequency-ratio bound for -oppoint")
	maxRatio := flag.Float64("max-ratio", 1.3, "upper frequency-ratio bound for -oppoint")
	steps := flag.Int("steps", 16, "bisection steps for -oppoint")
	modelCache := cliutil.ModelCacheFlags()
	flag.Parse()
	harness.SetModelCache(modelCache())
	cond := cell.OperatingCondition{VoltageV: *voltage, TempC: *temp}
	if err := harness.SetOperatingCondition(cond); err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %v\n", err)
		os.Exit(cliutil.ExitUsage)
	}

	if *explain {
		fmt.Println(explainText)
		return
	}
	if *surrogateEval {
		if flag.NArg() != 0 || *batchPath != "" {
			fmt.Fprintln(os.Stderr, "usage: tsperr -surrogate-eval [-surrogate-holdout F] [-surrogate-seed S] [-timeout D] [-json]")
			os.Exit(cliutil.ExitUsage)
		}
		runSurrogateEval(*timeout, *surrogateHoldout, *surrogateSeed, *jsonOut)
		return
	}
	if *oppointMode {
		if flag.NArg() != 1 || *batchPath != "" {
			fmt.Fprintln(os.Stderr, oppointUsage)
			os.Exit(cliutil.ExitUsage)
		}
		runOppoint(flag.Arg(0), *scenarios, *timeout, cond,
			*target, *minRatio, *maxRatio, *steps, *jsonOut)
		return
	}
	opts := core.AnalyzeOpts{
		Retries:      *retries,
		MinScenarios: *minScenarios,
		MCTrials:     *mcTrials,
		MCSeed:       *mcSeed,
	}
	if *batchPath != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: tsperr -batch suite.json [-json] [flags] (no benchmark argument)")
			os.Exit(cliutil.ExitUsage)
		}
		runBatch(*batchPath, *timeout, *scenarios, opts, *jsonOut)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tsperr [-scenarios N] [-timeout D] [-retries N] [-min-scenarios N] [-mc-trials N] [-json] [-explain] <benchmark>")
		fmt.Fprintln(os.Stderr, "       tsperr -batch suite.json [-json] [flags]")
		fmt.Fprintln(os.Stderr, "available benchmarks:")
		for _, b := range mibench.All() {
			fmt.Fprintf(os.Stderr, "  %-13s (%s)\n", b.Name, b.Category)
		}
		os.Exit(cliutil.ExitUsage)
	}
	name := flag.Arg(0)
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()
	rep, err := harness.AnalyzeWithOpts(ctx, name, *scenarios, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %s: analysis failed:\n", name)
		for _, line := range splitLines(harness.FailureDetail(err)) {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(cliutil.ExitFailure)
	}
	if rep.Degraded {
		fmt.Fprintf(os.Stderr, "tsperr: warning: degraded run, %d scenario(s) dropped:\n", rep.FailedScenarios)
		for _, line := range splitLines(harness.FailureDetail(rep.Failures)) {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
	}
	if *jsonOut {
		// The shared core.Report encoding — the same document tsperrd serves
		// — so scripted consumers parse one schema regardless of entry point.
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(buf))
		return
	}
	f, _ := harness.SharedFramework()
	pm := f.PerfModel()
	e := rep.Estimate

	fmt.Println(harness.Table2Header())
	fmt.Println(harness.Table2Row(rep))
	fmt.Println()
	mean := e.MeanErrorRate()
	fmt.Printf("error rate: mean %.3f%%  sd %.3f%%  (lambda %.1f over %.3g instructions)\n",
		100*mean, 100*e.StdErrorRate(), e.LambdaMean, e.TotalInsts)
	fmt.Printf("quantiles: P50 %.3f%%  P95 %.3f%%  P99 %.3f%%\n",
		100*e.ErrorRateQuantile(0.50), 100*e.ErrorRateQuantile(0.95),
		100*e.ErrorRateQuantile(0.99))
	fmt.Printf("bounds: d_K(lambda) <= %.3f, d_K(R_E) <= %.3f\n", e.DKLambda, e.DKCount)
	if mc := rep.MC; mc != nil {
		verdict := "within"
		if !mc.Within {
			verdict = "OUTSIDE"
		}
		fmt.Printf("monte carlo (%d trials, %d chunks): mean %.2f vs lambda %.2f; max CDF distance %.4f %s bound %.4f\n",
			mc.Trials, mc.Chunks, mc.Mean, mc.LambdaRef, mc.MaxCDFDistance, verdict, mc.Bound)
	}
	imp := pm.ImprovementPct(mean)
	verdict := "benefits from timing speculation"
	if imp < 0 {
		verdict = "is hurt by timing speculation"
	}
	fmt.Printf("performance at 1.15x frequency with replay-at-half-frequency: %+.2f%% — %s %s\n",
		imp, name, verdict)
	fmt.Printf("break-even error rate: %.3f%%\n", 100*pm.BreakEvenErrorRate())
}

// batchItemJSON is one entry of the -batch -json document; Report reuses the
// shared core.Report encoding, the same schema tsperrd serves.
type batchItemJSON struct {
	Index      int          `json:"index"`
	Name       string       `json:"name"`
	Key        string       `json:"key"`
	Dedup      bool         `json:"dedup,omitempty"`
	ElapsedSec float64      `json:"elapsed_sec"`
	Report     *core.Report `json:"report,omitempty"`
	Error      string       `json:"error,omitempty"`
}

type batchJSON struct {
	Items      []batchItemJSON `json:"items"`
	Computed   int             `json:"computed"`
	Deduped    int             `json:"deduped"`
	Failed     int             `json:"failed"`
	ElapsedSec float64         `json:"elapsed_sec"`
}

// runBatch executes a suite file. Text mode streams one row per entry as it
// lands; JSON mode emits the whole document at the end. Exits 1 when any
// entry failed, 2 when the suite itself is unusable.
func runBatch(path string, timeout time.Duration, scenarios int, opts core.AnalyzeOpts, jsonOut bool) {
	suite, err := harness.LoadSuite(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %v\n", err)
		os.Exit(cliutil.ExitUsage)
	}
	ctx, cancel := cliutil.Context(timeout)
	defer cancel()

	var onResult func(core.BatchItemResult)
	if !jsonOut {
		fmt.Println(harness.Table2Header())
		onResult = func(r core.BatchItemResult) {
			switch {
			case r.Err != nil:
				fmt.Printf("# %s: FAILED: %v\n", r.Name, r.Err)
			case r.Dedup:
				fmt.Printf("%s  (deduped)\n", harness.Table2Row(r.Report))
			default:
				fmt.Printf("%s  (%.2fs)\n", harness.Table2Row(r.Report), r.Elapsed.Seconds())
			}
		}
	}
	res, err := harness.RunSuite(ctx, suite, opts, scenarios, onResult)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %v\n", err)
		os.Exit(cliutil.ExitFailure)
	}
	if jsonOut {
		doc := batchJSON{
			Items:      make([]batchItemJSON, len(res.Items)),
			Computed:   res.Computed,
			Deduped:    res.Deduped,
			Failed:     res.Failed,
			ElapsedSec: res.Elapsed.Seconds(),
		}
		for i, r := range res.Items {
			doc.Items[i] = batchItemJSON{
				Index: r.Index, Name: r.Name, Key: r.Key, Dedup: r.Dedup,
				ElapsedSec: r.Elapsed.Seconds(), Report: r.Report,
			}
			if r.Err != nil {
				doc.Items[i].Error = r.Err.Error()
			}
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(buf))
	} else {
		fmt.Printf("suite: %d entries, %d computed, %d deduped, %d failed in %.2fs\n",
			len(res.Items), res.Computed, res.Deduped, res.Failed, res.Elapsed.Seconds())
	}
	if res.Failed > 0 {
		os.Exit(cliutil.ExitFailure)
	}
}
