package montecarlo

import (
	"tsperr/internal/cpu"
	"tsperr/internal/numeric"
)

// runTrial is the interpreter-driven trial the recorded-sequence walk
// replaced, kept as its oracle: it re-executes the program for global trial
// t (scenario t mod len(Cond)) and draws each retirement's error as the
// instruction retires.
func runTrial(spec Spec, cfgCPU cpu.Config, t int, rng *numeric.RNG) (float64, int64, error) {
	s := t % len(spec.Cond)
	cond := spec.Cond[s]
	machine, err := cpu.New(spec.Prog, cfgCPU)
	if err != nil {
		return 0, 0, err
	}
	defer machine.Release()
	if spec.Setup != nil {
		if err := spec.Setup(machine, s); err != nil {
			return 0, 0, err
		}
	}
	errors := 0.0
	errState := true // the processor starts flushed: p^in = 1
	st, err := machine.Run(func(d *cpu.DynInst) {
		p := cond.PC[d.Index]
		if errState {
			p = cond.PE[d.Index]
		}
		if rng.Float64() < p {
			errors++
			errState = true
		} else {
			errState = false
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return errors, st.Instructions, nil
}

// oracleRun is Run (chunkSize 0: one stream) or RunSharded's counts at
// chunkSize (one stream per chunk, seeded as RunSharded seeds it) through
// the interpreter trial, serially.
func oracleRun(spec Spec, chunkSize int) (*Result, error) {
	cfgCPU := spec.CPUConfig
	if cfgCPU.MemWords == 0 {
		cfgCPU = cpu.DefaultConfig()
	}
	res := &Result{Counts: make([]float64, spec.Trials)}
	rng := numeric.NewRNG(spec.Seed)
	for t := range res.Counts {
		if chunkSize > 0 && t%chunkSize == 0 {
			rng = numeric.NewRNG(chunkSeed(spec.Seed, t/chunkSize))
		}
		var err error
		if res.Counts[t], res.Instructions, err = runTrial(spec, cfgCPU, t, rng); err != nil {
			return nil, err
		}
	}
	return res, nil
}
