package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/montecarlo"
)

// benchNames is the -bench selection of table2 and figure3: one benchmark,
// or all twelve when empty.
func benchNames(bench string) []string {
	if bench != "" {
		return []string{bench}
	}
	var names []string
	for _, b := range mibench.All() {
		names = append(names, b.Name)
	}
	return names
}

// runTable2 regenerates Table 2 of the paper: per-benchmark program size,
// framework runtime split into training and simulation, error-rate mean and
// standard deviation, and the two approximation-error bounds.
func runTable2(args []string) {
	fs := newFlagSet("table2", "usage: tsperr table2 [flags]")
	scenarios := cliutil.Scenarios(fs)
	bench := fs.String("bench", "", "run a single benchmark instead of all twelve")
	timeout := cliutil.Timeout(fs)
	var opts core.AnalyzeOpts
	cliutil.Resilience(fs, &opts)
	engine := cliutil.Engine(fs, false)
	parse(fs, args, 0)
	eng := engine()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	fmt.Println("Table 2: Results, Performance, and Accuracy of Our Framework")
	fmt.Println(harness.Table2Header())
	var totalInsts, totalBlocks int64
	var totalTrain, totalSim float64
	for _, name := range benchNames(*bench) {
		rep := analyze(ctx, eng, name, *scenarios, opts)
		fmt.Println(harness.Table2Row(rep))
		totalInsts += rep.Instructions
		totalBlocks += int64(rep.BasicBlocks)
		totalTrain += rep.Training.Seconds()
		totalSim += rep.Simulation.Seconds()
	}
	fmt.Printf("%-13s %15d %7d %10.2f %10.2f\n",
		"Total", totalInsts, totalBlocks, totalTrain, totalSim)
}

// runFigure3 regenerates Figure 3 of the paper: the cumulative probability
// distribution of each program's error rate together with its lower and
// upper bound curves, and the performance-improvement labels of the top axis
// (speedup = 1.15 / (1 + 24 * error rate)).
func runFigure3(args []string) {
	fs := newFlagSet("figure3", "usage: tsperr figure3 [flags]")
	scenarios := cliutil.Scenarios(fs)
	bench := fs.String("bench", "", "single benchmark (default: all twelve)")
	points := fs.Int("points", 25, "CDF sample points")
	maxRate := fs.Float64("max", 1.6, "largest error rate (percent) on the axis")
	csv := fs.Bool("csv", false, "emit CSV series instead of text panels")
	timeout := cliutil.Timeout(fs)
	engine := cliutil.Engine(fs, false)
	parse(fs, args, 0)
	eng := engine()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	pm := framework(ctx, eng).PerfModel()
	if *csv {
		fmt.Println("benchmark,rate_pct,perf_improvement_pct,cdf_lower,cdf,cdf_upper")
	}
	for _, name := range benchNames(*bench) {
		rep := analyze(ctx, eng, name, *scenarios, core.AnalyzeOpts{})
		if *csv {
			for _, p := range harness.Figure3Series(rep, pm, *maxRate, *points) {
				fmt.Printf("%s,%.4f,%.3f,%.4f,%.4f,%.4f\n",
					name, p.RatePct, p.ImprovementPct, p.Lo, p.CDF, p.Hi)
			}
		} else {
			fmt.Println(harness.RenderFigure3(rep, pm, *maxRate, *points))
		}
	}
}

// runReport produces the full evaluation as one document: markdown by
// default, or with -json the machine-readable form.
func runReport(args []string) {
	fs := newFlagSet("report", "usage: tsperr report [flags]")
	scenarios := cliutil.Scenarios(fs)
	out := fs.String("o", "", "output file (default stdout)")
	timeout := cliutil.Timeout(fs)
	var opts core.AnalyzeOpts
	cliutil.Resilience(fs, &opts)
	jsonOut := fs.Bool("json", false, "emit the evaluation as JSON instead of markdown")
	engine := cliutil.Engine(fs, false)
	parse(fs, args, 0)
	eng := engine()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	var doc []byte
	if *jsonOut {
		doc = reportJSON(ctx, eng, *scenarios, opts)
	} else {
		doc = reportMarkdown(ctx, eng, *scenarios, opts)
	}
	if *out == "" {
		if _, err := os.Stdout.Write(doc); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// reportMarkdown renders Table 2, a Figure 3 CDF table per benchmark, the
// operating-point anchors, and a Monte Carlo validation of the smallest
// benchmark as one markdown report.
func reportMarkdown(ctx context.Context, eng *harness.Engine, scenarios int, opts core.AnalyzeOpts) []byte {
	f := framework(ctx, eng)
	var sb bytes.Buffer
	pm := f.PerfModel()
	fmt.Fprintf(&sb, "# tsperr evaluation report\n\n")
	fmt.Fprintf(&sb, "Machine: base %.0f MHz, PoFF %.2fx, working %.2fx (%.0f MHz), %s.\n\n",
		f.Machine.Opts.BaseFreqMHz, f.Machine.Opts.PoFFRatio,
		f.Machine.Opts.WorkingRatio, f.Machine.WorkingFreqMHz(),
		"replay-at-half-frequency correction")

	// ---- Table 2. ----
	fmt.Fprintf(&sb, "## Table 2\n\n")
	fmt.Fprintf(&sb, "| Benchmark | Instructions | Blocks | Mean(%%) | SD(%%) | dK(λ) | dK(R) | P95 rate(%%) | Perf(%%) |\n")
	fmt.Fprintf(&sb, "|---|---|---|---|---|---|---|---|---|\n")
	reports := map[string]*core.Report{}
	var degraded []*core.Report
	for _, b := range mibench.All() {
		rep := analyze(ctx, eng, b.Name, scenarios, opts)
		reports[b.Name] = rep
		if rep.Degraded {
			degraded = append(degraded, rep)
		}
		e := rep.Estimate
		mark := ""
		if rep.Degraded {
			mark = " †"
		}
		fmt.Fprintf(&sb, "| %s%s | %d | %d | %.3f | %.3f | %.3f | %.3f | %.3f | %+.2f |\n",
			rep.Name, mark, rep.Instructions, rep.BasicBlocks,
			100*e.MeanErrorRate(), 100*e.StdErrorRate(),
			e.DKLambda, e.DKCount,
			100*e.ErrorRateQuantile(0.95),
			pm.ImprovementPct(e.MeanErrorRate()))
	}
	for _, rep := range degraded {
		fmt.Fprintf(&sb, "\n† %s: degraded run, %d scenario(s) dropped:\n\n", rep.Name, rep.FailedScenarios)
		for _, line := range strings.Split(harness.FailureDetail(rep.Failures), "\n") {
			fmt.Fprintf(&sb, "  - %s\n", line)
		}
	}
	fmt.Fprintf(&sb, "\nBreak-even error rate at this operating point: %.3f%%.\n\n",
		100*pm.BreakEvenErrorRate())

	// ---- Figure 3. ----
	fmt.Fprintf(&sb, "## Figure 3 (CDFs with Section 6.4 bounds)\n\n")
	for _, b := range mibench.All() {
		rep := reports[b.Name]
		fmt.Fprintf(&sb, "### %s\n\n", b.Name)
		fmt.Fprintf(&sb, "| rate(%%) | perf(%%) | lower | cdf | upper |\n|---|---|---|---|---|\n")
		for _, p := range harness.Figure3Series(rep, pm, 1.2, 13) {
			fmt.Fprintf(&sb, "| %.2f | %+.2f | %.3f | %.3f | %.3f |\n",
				p.RatePct, p.ImprovementPct, p.Lo, p.CDF, p.Hi)
		}
		fmt.Fprintf(&sb, "\n")
	}

	// ---- Monte Carlo validation on the smallest benchmark. ----
	fmt.Fprintf(&sb, "## Monte Carlo validation\n\n")
	bm, _ := mibench.ByName("typeset")
	unscaled, err := f.Analyze(ctx, bm.Name, core.ProgramSpec{
		Prog: bm.Prog, Setup: bm.Setup, Scenarios: scenarios,
	})
	if err != nil {
		log.Fatal(err)
	}
	var conds []*errormodel.Conditionals
	for _, sc := range unscaled.Scenarios {
		conds = append(conds, sc.Cond)
	}
	mc, err := montecarlo.Run(montecarlo.Spec{
		Prog: bm.Prog, Setup: bm.Setup, Cond: conds, Trials: 1500, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	ecdf := mc.CDF()
	worst := 0.0
	for k := 0.0; k < unscaled.Estimate.LambdaMean*4+10; k++ {
		if d := math.Abs(ecdf(k) - unscaled.Estimate.ErrorCountCDF(k)); d > worst {
			worst = d
		}
	}
	fmt.Fprintf(&sb, "typeset (unscaled): analytic λ = %.2f, Monte Carlo mean = %.2f; "+
		"max CDF distance %.4f vs bound %.4f.\n",
		unscaled.Estimate.LambdaMean, mc.Mean(), worst,
		unscaled.Estimate.DKLambda+unscaled.Estimate.DKCount)
	return sb.Bytes()
}

// reportJSON encodes the operating point and every benchmark's report in the
// shared core.Report JSON schema (the same document the estimate's -json
// prints and tsperrd serves).
func reportJSON(ctx context.Context, eng *harness.Engine, scenarios int, opts core.AnalyzeOpts) []byte {
	f := framework(ctx, eng)
	doc := struct {
		BaseFreqMHz      float64        `json:"base_freq_mhz"`
		WorkingFreqMHz   float64        `json:"working_freq_mhz"`
		WorkingRatio     float64        `json:"working_ratio"`
		BreakEvenRatePct float64        `json:"break_even_error_rate_pct"`
		Scenarios        int            `json:"scenarios"`
		Reports          []*core.Report `json:"reports"`
	}{
		BaseFreqMHz:      f.Machine.Opts.BaseFreqMHz,
		WorkingFreqMHz:   f.Machine.WorkingFreqMHz(),
		WorkingRatio:     f.Machine.Opts.WorkingRatio,
		BreakEvenRatePct: 100 * f.PerfModel().BreakEvenErrorRate(),
		Scenarios:        scenarios,
	}
	for _, b := range mibench.All() {
		doc.Reports = append(doc.Reports, analyze(ctx, eng, b.Name, scenarios, opts))
	}
	return jsonDoc(doc)
}
