package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"tsperr/internal/cliutil"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
)

// oppointJSON is the oppoint -json document: the bisection outcome at one
// operating condition, mirroring one point of tsperrd's /v1/oppoint response.
type oppointJSON struct {
	Benchmark         string  `json:"benchmark"`
	VoltageV          float64 `json:"voltage"`
	TempC             float64 `json:"temp_c"`
	TargetErrorRate   float64 `json:"target_error_rate"`
	BaseFreqMHz       float64 `json:"base_freq_mhz"`
	Feasible          bool    `json:"feasible"`
	Ratio             float64 `json:"ratio"`
	PeriodPs          float64 `json:"period_ps"`
	FreqMHz           float64 `json:"freq_mhz"`
	ErrorRate         float64 `json:"error_rate"`
	Speedup           float64 `json:"speedup"`
	CDFBelowBreakEven float64 `json:"cdf_below_break_even"`
	Evals             int     `json:"evals"`
}

// runOppoint bisects the fastest frequency ratio meeting the target error
// rate at one operating condition (tsperr oppoint). Exit status follows the
// command contract: 2 for usage errors, including a target or ratio grid the
// search rejects; 1 for analysis failures; an infeasible target is a result,
// not a failure.
func runOppoint(args []string) {
	fs := newFlagSet("oppoint", "usage: tsperr oppoint [flags] <benchmark>")
	target := fs.Float64("target", 0.01, "target error rate (fraction, not percent)")
	minRatio := fs.Float64("min-ratio", 1.0, "lower frequency-ratio bound")
	maxRatio := fs.Float64("max-ratio", 1.3, "upper frequency-ratio bound")
	steps := fs.Int("steps", 16, "bisection steps")
	scenarios := cliutil.Scenarios(fs)
	timeout := cliutil.Timeout(fs)
	jsonOut := fs.Bool("json", false, "emit the operating point as JSON instead of text")
	engine := cliutil.Engine(fs, true)
	parse(fs, args, 1)
	eng := engine()
	cond := eng.Options().Cond
	name := fs.Arg(0)

	// Unknown benchmark is an analysis failure (exit 1), matching the plain
	// single-benchmark mode; checking upfront avoids building a framework
	// just to discover the name is bad.
	if _, err := mibench.ByName(name); err != nil {
		log.Print(err)
		os.Exit(cliutil.ExitFailure)
	}
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	probe := func(ctx context.Context, ratio float64) (*core.Report, error) {
		return eng.AnalyzeAt(ctx, name, *scenarios, core.AnalyzeOpts{}, cond, ratio)
	}
	op, err := core.SelectOperatingPoint(ctx, *minRatio, *maxRatio, *steps, *target, probe)
	if errors.Is(err, core.ErrBadSearch) {
		// The search checks its arguments before the first probe, so no
		// framework was built.
		log.Print(err)
		fs.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: %s: oppoint search failed:\n", name)
		printDetail(err)
		os.Exit(cliutil.ExitFailure)
	}

	baseFreq := errormodel.DefaultOptions().BaseFreqMHz
	doc := oppointJSON{
		Benchmark:         name,
		VoltageV:          cond.Norm().VoltageV,
		TempC:             cond.Norm().TempC,
		TargetErrorRate:   *target,
		BaseFreqMHz:       baseFreq,
		Feasible:          op.Feasible,
		Ratio:             op.Ratio,
		PeriodPs:          1e6 / baseFreq / op.Ratio,
		FreqMHz:           baseFreq * op.Ratio,
		ErrorRate:         op.ErrorRate,
		Speedup:           op.Speedup,
		CDFBelowBreakEven: op.CDFBelowBreakEven,
		Evals:             op.Evals,
	}

	if *jsonOut {
		os.Stdout.Write(jsonDoc(doc))
		return
	}
	fmt.Printf("%s: operating-point search at %s (base %.0f MHz)\n", name, cond, baseFreq)
	fmt.Printf("target error rate: %.3g over ratios [%.4g, %.4g] in %d steps (%d evals)\n",
		*target, *minRatio, *maxRatio, *steps, op.Evals)
	if !op.Feasible {
		fmt.Printf("INFEASIBLE: even ratio %.4f has error rate %.3g > target\n",
			op.Ratio, op.ErrorRate)
		return
	}
	fmt.Printf("fastest feasible ratio: %.4f (%.0f MHz, period %.1f ps)\n",
		doc.Ratio, doc.FreqMHz, doc.PeriodPs)
	fmt.Printf("error rate there: %.3g; expected speedup %.4f; P(profitable) %.3f\n",
		doc.ErrorRate, doc.Speedup, doc.CDFBelowBreakEven)
}
