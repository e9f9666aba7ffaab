// Command tsperr is the result CLI of the framework. Without a mode it runs
// the error-rate estimation on one benchmark and reports the Table 2 row, the
// headline distribution numbers, and the resulting timing-speculation
// verdict; its modes run a suite, search an operating point, evaluate the
// surrogate fast tier, and regenerate the paper's evaluation.
//
// Usage:
//
//	tsperr [-scenarios N] [-timeout D] [-retries N] [-min-scenarios N]
//	       [-mc-trials N] [-mc-seed S] [-voltage V] [-temp C] [-json] <benchmark>
//	tsperr batch [the estimate's flags] <suite.json>
//	tsperr oppoint [-target F] [-min-ratio R] [-max-ratio R] [-steps N]
//	       [-scenarios N] [-timeout D] [-voltage V] [-temp C] [-json] <benchmark>
//	tsperr surrogate-eval [-surrogate-holdout F] [-surrogate-seed S]
//	       [-timeout D] [-voltage V] [-temp C] [-json]
//	tsperr table2 [-scenarios N] [-bench name] [-timeout D] [-retries N] [-min-scenarios N]
//	tsperr figure3 [-scenarios N] [-bench name] [-points N] [-max maxRatePct] [-csv] [-timeout D]
//	tsperr report [-scenarios N] [-o file.md] [-timeout D] [-retries N] [-min-scenarios N] [-json]
//	tsperr explain
//
// Every mode but explain also takes -model-cache and -model-cache-dir. A
// mode takes only the flags it reads: any other flag is a usage error. Run
// with no arguments to list the available benchmarks.
//
// batch runs a suite file ({"entries":[{"benchmark":...,"scenarios":...}]})
// through the shared framework with identical entries computed once; results
// stream as text rows, or -json emits one document reusing the shared
// core.Report encoding per entry. -mc-trials appends a sharded Monte Carlo
// validation of the analytic distribution to the report.
//
// -voltage/-temp evaluate at an explicit operating condition (the cell-delay
// scaling law inflates delays and variability as the supply droops or the die
// heats); zero means the nominal 1.1 V / 25 C corner. oppoint bisects the
// fastest frequency ratio whose error rate stays at or below -target at that
// condition and prints the resulting operating point (or -json, one document
// mirroring a point of tsperrd's /v1/oppoint response).
//
// table2 and figure3 regenerate Table 2 and Figure 3 of the paper. report is
// the one-shot "regenerate everything" entry point: a single markdown report
// with Table 2, a Figure 3 CDF table per benchmark, the operating-point
// anchors, and a Monte Carlo validation section; with -json it emits the
// operating point and every benchmark's core.Report in the shared JSON schema
// instead (the Monte Carlo section is markdown-only).
//
// Exit status is 2 for usage errors and 1 for analysis failures (in batch
// mode: if any entry failed); on failure every failing scenario is reported
// with its pipeline phase, not just the first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
)

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

// usage is the bare command's synopsis, listing every mode.
const usage = `usage: tsperr [flags] <benchmark>
       tsperr batch [flags] <suite.json>
       tsperr oppoint [flags] <benchmark>
       tsperr surrogate-eval [flags]
       tsperr table2 | figure3 | report [flags]
       tsperr explain
Run 'tsperr <mode> -h' for a mode's flags. The estimate's flags:`

// modes maps each subcommand to its entry point; any other first argument
// starts the single-benchmark estimate.
var modes = map[string]func(args []string){
	"batch":          runBatch,
	"oppoint":        runOppoint,
	"surrogate-eval": runSurrogateEval,
	"explain":        runExplain,
	"table2":         runTable2,
	"figure3":        runFigure3,
	"report":         runReport,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsperr: ")
	if len(os.Args) > 1 {
		if run, ok := modes[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	runEstimate(os.Args[1:])
}

// newFlagSet returns the flag set of one mode. Its usage message is the
// mode's synopsis followed by its flags; parsing a flag the mode does not
// register exits 2 with a message naming it.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a mode's arguments and requires exactly npos positional
// arguments after the flags; any other count is a usage error.
func parse(fs *flag.FlagSet, args []string, npos int) {
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited
	if fs.NArg() != npos {
		fs.Usage()
		os.Exit(cliutil.ExitUsage)
	}
}

// printDetail writes a FailureDetail block to stderr, one indented line per
// failing scenario.
func printDetail(err error) {
	for _, line := range strings.Split(strings.TrimRight(harness.FailureDetail(err), "\n"), "\n") {
		fmt.Fprintf(os.Stderr, "  %s\n", line)
	}
}

// analyze runs one benchmark through the engine and exits 1 with the
// per-scenario failure detail if the analysis fails.
func analyze(ctx context.Context, eng *harness.Engine, name string, scenarios int, opts core.AnalyzeOpts) *core.Report {
	rep, err := eng.Analyze(ctx, name, scenarios, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %s: analysis failed:\n", name)
		printDetail(err)
		os.Exit(cliutil.ExitFailure)
	}
	return rep
}

// framework returns the engine's framework, building it under ctx, and exits
// 1 if it cannot be built.
func framework(ctx context.Context, eng *harness.Engine) *core.Framework {
	f, err := eng.Framework(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// jsonDoc encodes v as the modes print it: indented, newline-terminated.
// Reports use the shared core.Report encoding, the same document tsperrd
// serves, so scripted consumers parse one schema regardless of entry point.
func jsonDoc(v any) []byte {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	return append(buf, '\n')
}

func runExplain(args []string) {
	parse(newFlagSet("explain", "usage: tsperr explain"), args, 0)
	fmt.Println(explainText)
}

// estimateArgs are the parsed flags of the single-benchmark estimate, which
// batch mode shares: each suite entry is one estimate.
type estimateArgs struct {
	arg       string // the benchmark, or batch mode's suite file
	eng       *harness.Engine
	scenarios int
	timeout   time.Duration
	opts      core.AnalyzeOpts
	json      bool
}

// parseEstimate registers the estimate's flags on fs, parses args, and
// builds the engine at the model cache and operating condition they select.
func parseEstimate(fs *flag.FlagSet, args []string) estimateArgs {
	var a estimateArgs
	scenarios := cliutil.Scenarios(fs)
	timeout := cliutil.Timeout(fs)
	cliutil.Resilience(fs, &a.opts)
	fs.IntVar(&a.opts.MCTrials, "mc-trials", 0,
		"validate the analytic distribution with this many sharded Monte Carlo trials (0 = off)")
	fs.Uint64Var(&a.opts.MCSeed, "mc-seed", 0, "Monte Carlo seed (0 = the pipeline default)")
	fs.BoolVar(&a.json, "json", false, "emit JSON (the shared core.Report encoding) instead of text")
	engine := cliutil.Engine(fs, true)
	parse(fs, args, 1)
	a.arg, a.eng, a.scenarios, a.timeout = fs.Arg(0), engine(), *scenarios, *timeout
	return a
}

func runEstimate(args []string) {
	fs := newFlagSet("tsperr", usage)
	flagUsage := fs.Usage
	fs.Usage = func() {
		flagUsage()
		fmt.Fprintln(fs.Output(), "available benchmarks:")
		for _, b := range mibench.All() {
			fmt.Fprintf(fs.Output(), "  %-13s (%s)\n", b.Name, b.Category)
		}
	}
	a := parseEstimate(fs, args)
	ctx, cancel := cliutil.Context(a.timeout)
	defer cancel()
	rep := analyze(ctx, a.eng, a.arg, a.scenarios, a.opts)
	if rep.Degraded {
		fmt.Fprintf(os.Stderr, "tsperr: warning: degraded run, %d scenario(s) dropped:\n", rep.FailedScenarios)
		printDetail(rep.Failures)
	}
	if a.json {
		os.Stdout.Write(jsonDoc(rep))
		return
	}
	pm := framework(ctx, a.eng).PerfModel()
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
		imp, a.arg, verdict)
	fmt.Printf("break-even error rate: %.3f%%\n", 100*pm.BreakEvenErrorRate())
}

// batchItemJSON is one entry of the batch -json document; Report reuses the
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
func runBatch(args []string) {
	a := parseEstimate(newFlagSet("batch", "usage: tsperr batch [flags] <suite.json>"), args)
	suite, err := harness.LoadSuite(a.arg)
	if err != nil {
		log.Print(err)
		os.Exit(cliutil.ExitUsage)
	}
	ctx, cancel := cliutil.Context(a.timeout)
	defer cancel()

	var onResult func(core.BatchItemResult)
	if !a.json {
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
	res, err := a.eng.RunSuite(ctx, suite, a.opts, a.scenarios, onResult)
	if err != nil {
		log.Print(err)
		os.Exit(cliutil.ExitFailure)
	}
	if a.json {
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
		os.Stdout.Write(jsonDoc(doc))
	} else {
		fmt.Printf("suite: %d entries, %d computed, %d deduped, %d failed in %.2fs\n",
			len(res.Items), res.Computed, res.Deduped, res.Failed, res.Elapsed.Seconds())
	}
	if res.Failed > 0 {
		os.Exit(cliutil.ExitFailure)
	}
}
