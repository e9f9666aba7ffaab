// Command dtadump demonstrates the DTA flow of Figure 1 on the generated
// gate-level netlists: it simulates a stimulus, records per-cycle activation
// (the VCD input of Algorithm 1), and prints the dynamic timing slack of
// each cycle, contrasting it with the static (STA) slack.
//
// Usage:
//
//	dtadump [-unit adder|control] [-cycles N] [-vcd file] [-timeout D]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tsperr/internal/activity"
	"tsperr/internal/cliutil"
	"tsperr/internal/dta"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtadump: ")
	unit := flag.String("unit", "adder", "netlist to analyze: adder or control")
	cycles := flag.Int("cycles", 12, "stimulus length")
	vcdPath := flag.String("vcd", "", "also write the activity trace as VCD to this file")
	timeout := flag.Duration("timeout", 0, "abort the dump after this duration (0 = none)")
	flag.Parse()
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rng := numeric.NewRNG(2019)

	var (
		n        *netlist.Netlist
		analyzer *dta.Analyzer
		inputs   func(t int, in activity.Inputs)
	)
	switch *unit {
	case "adder":
		n = m.Adder.N
		analyzer = m.AdderDTA
		inputs = func(t int, in activity.Inputs) {
			a := uint32(rng.Uint64())
			b := uint32(rng.Uint64())
			if t%4 == 3 { // periodically force a full carry chain
				a, b = 0xFFFFFFFF, 1
			}
			in.SetWord(m.Adder.A[:], uint64(a))
			in.SetWord(m.Adder.B[:], uint64(b))
		}
	case "control":
		n = m.Ctrl.N
		analyzer = m.CtrlDTA
		ops := []isa.Inst{
			{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
			{Op: isa.OpLw, Rd: 4, Rs1: 1, Imm: 8},
			{Op: isa.OpBne, Rs1: 4, Rs2: 0, Imm: -2},
			{Op: isa.OpXor, Rd: 5, Rs1: 4, Rs2: 1},
		}
		inputs = func(t int, in activity.Inputs) {
			in.SetWord(m.Ctrl.Instr[:], uint64(ops[t%len(ops)].Encode()))
			in.SetWord(m.Ctrl.ExResult[:], uint64(uint32(rng.Uint64())))
		}
	default:
		log.Fatalf("unknown unit %q", *unit)
	}
	if err := ctx.Err(); err != nil {
		log.Fatalf("aborted at cycle 0: %v", err)
	}
	sim, err := activity.Compile(n)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := sim.Run(*cycles, inputs)
	if err != nil {
		log.Fatal(err)
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := activity.WriteVCD(f, tr, *unit); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *vcdPath)
	}

	fmt.Printf("unit %s: %d gates, clock period %.1f ps (%.0f MHz)\n",
		*unit, n.NumGates(), m.WorkingPeriodPs, m.WorkingFreqMHz())
	fmt.Printf("%6s %12s %12s %12s %14s\n", "cycle", "activated", "DTS mean", "DTS sigma", "P(error)")
	for t := 0; t < tr.Cycles(); t++ {
		if err := ctx.Err(); err != nil {
			log.Fatalf("aborted at cycle %d: %v", t, err)
		}
		var eps []netlist.GateID
		for s := 0; s < n.Stages; s++ {
			eps = append(eps, n.Endpoints(s)...)
		}
		form, ok := analyzer.StageDTS(eps, t, tr)
		if !ok {
			fmt.Printf("%6d %12d %12s %12s %14s\n", t, tr.Count(t), "-", "-", "no active path")
			continue
		}
		mean := form.Mean + m.WorkingPeriodPs // the period-free form at the clock
		fmt.Printf("%6d %12d %12.1f %12.1f %14.3g\n",
			t, tr.Count(t), mean, form.Std(), dta.ErrorProbability(mean, form.Std()))
	}
}
