package main

import (
	"fmt"
	"os"
	"time"

	"tsperr/internal/cliutil"
	"tsperr/internal/surrogate"
)

// surrogateEvalBounds is the uncertainty-bound sweep behind the
// coverage-vs-accuracy curve: from a gate so strict it serves almost nothing
// to one loose enough to serve everything the model has seen.
var surrogateEvalBounds = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.75, 1}

// runSurrogateEval labels the benchmark suite with the exact pipeline, trains
// the surrogate on a split, and reports how the confidence gate trades
// coverage (fraction of held-out requests served) against accuracy (MAE in
// log10 error-rate units) as the uncertainty bound sweeps.
func runSurrogateEval(args []string) {
	fs := newFlagSet("surrogate-eval", "usage: tsperr surrogate-eval [flags]")
	holdout := fs.Float64("surrogate-holdout", 0, "held-out fraction (0 = 0.3 default)")
	seed := fs.Uint64("surrogate-seed", 42, "train/test split seed")
	timeout := cliutil.Timeout(fs)
	jsonOut := fs.Bool("json", false, "emit the evaluation as JSON instead of text")
	engine := cliutil.Engine(fs, true)
	parse(fs, args, 0)
	eng := engine()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()
	t0 := time.Now()
	samples, err := eng.SurrogateEvalSamples(ctx, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: surrogate eval: %v\n", err)
		os.Exit(cliutil.ExitFailure)
	}
	label := time.Since(t0)
	res, err := surrogate.Eval(samples, surrogate.Config{Fingerprint: "eval"},
		surrogateEvalBounds, *holdout, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsperr: surrogate eval: %v\n", err)
		os.Exit(cliutil.ExitFailure)
	}
	if *jsonOut {
		os.Stdout.Write(jsonDoc(struct {
			Samples  int                   `json:"samples"`
			LabelSec float64               `json:"label_sec"`
			Result   *surrogate.EvalResult `json:"result"`
		}{len(samples), label.Seconds(), res}))
		return
	}
	fmt.Printf("surrogate eval: %d labeled samples (exact pipeline, %.1fs), train %d / held-out %d\n",
		len(samples), label.Seconds(), res.TrainN, res.TestN)
	fmt.Printf("ungated held-out MAE: %.3f log10 (default gate: coverage %.0f%%, MAE %.3f)\n",
		res.MAE, 100*res.GatedCoverage, res.GatedMAE)
	fmt.Println()
	fmt.Println("bound    coverage   served    MAE      max|err|")
	for _, p := range res.Curve {
		fmt.Printf("%-8.3g %7.1f%% %8d   %.3f    %.3f\n",
			p.Bound, 100*p.Coverage, p.Served, p.MAE, p.MaxErr)
	}
	fmt.Println("\n(bound = log10 uncertainty the gate will serve; escalated requests run exact and are error-free)")
}
