// Operating-point selection: sweep the speculative clock frequency and watch
// error rate and net performance trade off, reproducing the Section 6.1
// story — a point of first failure at 1.13x the STA frequency and a chosen
// working point at 1.15x — and locating the frequency where speculation
// stops paying for a given program.
//
// Run with:
//
//	go run ./examples/operatingpoint
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"tsperr/internal/core"
	"tsperr/internal/cpu"
	"tsperr/internal/errormodel"
	"tsperr/internal/mibench"
)

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the framework and prints the ratio sweep table to w.
func run(ctx context.Context, w io.Writer) error {
	opts := errormodel.DefaultOptions()
	fw, err := core.NewFramework(opts)
	if err != nil {
		return err
	}
	b, err := mibench.ByName("stringsearch")
	if err != nil {
		return err
	}

	base := fw.Machine.BasePeriodPs
	fmt.Fprintf(w, "STA sign-off: %.0f MHz (period %.1f ps); PoFF calibrated at %.2fx\n",
		opts.BaseFreqMHz, base, opts.PoFFRatio)
	fmt.Fprintf(w, "%8s %10s %12s %12s %14s\n",
		"ratio", "freq(MHz)", "errors(%)", "speedup", "verdict")

	spec := core.ProgramSpec{Prog: b.Prog, Setup: b.Setup, Scenarios: 4, ScaleToInsts: b.ScaleTo}
	for _, ratio := range []float64{1.00, 1.05, 1.10, 1.13, 1.15, 1.18, 1.21, 1.25} {
		// Analyze at this operating point's clock period, with the datapath
		// tables trained at it (their DTS depends on the clock); the one
		// framework serves every ratio unchanged.
		rep, err := fw.AnalyzeAt(ctx, b.Name, spec, opts.Cond, ratio, core.AnalyzeOpts{})
		if err != nil {
			return err
		}
		er := rep.Estimate.MeanErrorRate()
		pm := cpu.PerfModel{FreqRatio: ratio, BaseCPI: 1, Scheme: cpu.ReplayHalfFrequency}
		speedup := pm.Speedup(er)
		verdict := "worth it"
		if speedup < 1 {
			verdict = "slower than baseline"
		}
		if er == 0 {
			verdict = "error-free"
		}
		fmt.Fprintf(w, "%8.2f %10.0f %12.4f %12.4f %14s\n",
			ratio, 1e6/(base/ratio), 100*er, speedup, verdict)
	}
	return nil
}
