package errormodel

import (
	"tsperr/internal/cfg"
	"tsperr/internal/cpu"
)

// ScenarioFeatures accumulates per-static-instruction datapath failure
// statistics over one program execution (one input scenario).
type ScenarioFeatures struct {
	Count    []int64
	sumFailC []float64 // datapath fail prob, normal predecessor
	sumFailE []float64 // datapath fail prob, flushed predecessor
	// Power sums of the per-instance datapath failure probability, used to
	// reconstruct the instance-level moments the Stein bound needs (the
	// paper records "error probability of all dynamic instances of each
	// instruction and forms a probability distribution of them").
	sumFailC2, sumFailC3, sumFailC4 []float64
	// Results records a representative EX result value per static
	// instruction, needed by the control characterization stimulus.
	Results []uint32

	// table is the datapath model's per-op depth table, resolved once at
	// collector creation so Observe indexes it without the once-guard.
	table *cpu.FailTable
}

// InstanceMoments returns the instance count and the first four power sums
// (T1..T4) of the per-instance datapath failure probability of static
// instruction i within this scenario.
func (f *ScenarioFeatures) InstanceMoments(i int) (n int64, t1, t2, t3, t4 float64) {
	return f.Count[i], f.sumFailC[i], f.sumFailC2[i], f.sumFailC3[i], f.sumFailC4[i]
}

// NewFeatureCollector returns a features accumulator and the cpu.Observer
// that feeds it, evaluating the trained datapath model per dynamic
// instruction (this is the "instrumented native execution" of Figure 2: only
// architecturally visible values are consumed).
func NewFeatureCollector(numInsts int, dp *DatapathModel) (*ScenarioFeatures, cpu.Observer) {
	f := &ScenarioFeatures{
		Count:     make([]int64, numInsts),
		sumFailC:  make([]float64, numInsts),
		sumFailE:  make([]float64, numInsts),
		sumFailC2: make([]float64, numInsts),
		sumFailC3: make([]float64, numInsts),
		sumFailC4: make([]float64, numInsts),
		Results:   make([]uint32, numInsts),
	}
	// The observer runs once per retired instruction; evaluate the model
	// through its depth table directly, hoisting the once-guard out of the
	// loop.
	f.table = dp.FailTable()
	return f, f.Observe
}

// FeaturesFromTally returns the features of one tally run, sharing t's
// slices. Its sums are the ones Observe would accumulate over the run's
// DynInst stream.
func FeaturesFromTally(t *cpu.Tally) *ScenarioFeatures {
	return &ScenarioFeatures{
		Count:     t.Count,
		sumFailC:  t.SumP,
		sumFailE:  t.SumQ,
		sumFailC2: t.SumP2,
		sumFailC3: t.SumP3,
		sumFailC4: t.SumP4,
		Results:   t.Result,
	}
}

// Observe accumulates one retired instruction. It is the static-dispatch hot
// path behind the Observer returned by NewFeatureCollector.
func (f *ScenarioFeatures) Observe(d *cpu.DynInst) {
	f.Count[d.Index]++
	f.Results[d.Index] = d.Result
	// Most dynamic instances carry probability exactly 0 (shallow depth,
	// untrained class); a byte compare against the op's minimum nonzero
	// depth skips both row probes then. Skipping the power-sum updates is
	// bit-exact because x + 0 == x for the non-negative accumulators.
	md := int(f.table.Min[d.Op])
	if d.Depth < md && d.DepthFlush < md {
		return
	}
	row := f.table.Rows[d.Op]
	if row == nil {
		return
	}
	if p := row[lutDepth(d.Depth)]; p != 0 {
		f.sumFailC[d.Index] += p
		p2 := p * p
		f.sumFailC2[d.Index] += p2
		f.sumFailC3[d.Index] += p2 * p
		f.sumFailC4[d.Index] += p2 * p2
	}
	if q := row[lutDepth(d.DepthFlush)]; q != 0 {
		f.sumFailE[d.Index] += q
	}
}

// ObserveBatch accumulates a batch of retired instructions, equivalent to
// calling Observe on each in order. The accumulator slices are hoisted out
// of the loop, so the common all-zero-probability instruction costs two
// array updates and a table probe.
func (f *ScenarioFeatures) ObserveBatch(ds []cpu.DynInst) {
	count, results, rows, mins := f.Count, f.Results, &f.table.Rows, &f.table.Min
	for i := range ds {
		d := &ds[i]
		idx := d.Index
		count[idx]++
		results[idx] = d.Result
		md := int(mins[d.Op])
		if d.Depth < md && d.DepthFlush < md {
			continue
		}
		row := rows[d.Op]
		if row == nil {
			continue
		}
		if p := row[lutDepth(d.Depth)]; p != 0 {
			f.sumFailC[idx] += p
			p2 := p * p
			f.sumFailC2[idx] += p2
			f.sumFailC3[idx] += p2 * p
			f.sumFailC4[idx] += p2 * p2
		}
		if q := row[lutDepth(d.DepthFlush)]; q != 0 {
			f.sumFailE[idx] += q
		}
	}
}

// Conditionals holds the per-static-instruction conditional error
// probabilities of one scenario: PC[i] = p^c (previous instruction correct)
// and PE[i] = p^e (previous instruction errored), per Section 4.1.
type Conditionals struct {
	PC, PE []float64
}

// BuildConditionals combines the control characterization with the
// scenario's datapath statistics. Control and datapath paths live in
// disjoint logic, so their failure events combine as complements:
// p = 1 - (1-pCtrl)(1-pData).
func BuildConditionals(g *cfg.Graph, cc *ControlChar, f *ScenarioFeatures) *Conditionals {
	n := len(g.Prog.Insts)
	c := &Conditionals{PC: make([]float64, n), PE: make([]float64, n)}
	for i := 0; i < n; i++ {
		b := g.BlockOf[i]
		k := i - g.Blocks[b].Start
		var dpC, dpE float64
		if f.Count[i] > 0 {
			dpC = f.sumFailC[i] / float64(f.Count[i])
			dpE = f.sumFailE[i] / float64(f.Count[i])
		}
		c.PC[i] = 1 - (1-cc.Fail[b][k])*(1-dpC)
		c.PE[i] = 1 - (1-cc.FailFlush[b][k])*(1-dpE)
	}
	return c
}
