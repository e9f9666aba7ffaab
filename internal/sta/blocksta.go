package sta

import (
	"math"

	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/variation"
)

// Block-based SSTA: propagate canonical arrival-time forms through the
// netlist in topological order, merging reconvergent fanin with Clark's max
// operator. This is the sign-off style analysis a tool like PrimeTime runs
// (one pass, no path enumeration); the path-based machinery elsewhere in
// this package exists because Algorithm 1 needs per-path activation tests,
// but both views must agree on the design's overall timing, which the tests
// assert.

// ArrivalSSTA returns the canonical arrival form at every gate's output
// (clock-to-Q included at sources) and a validity mask (false for gates with
// no driven arrival, e.g. floating inputs).
func (e *Engine) ArrivalSSTA() ([]variation.Canon, []bool) {
	gates := e.N.Gates()
	arr := make([]variation.Canon, len(gates))
	valid := make([]bool, len(gates))
	for _, id := range e.topo {
		g := &gates[id]
		if g.Kind.IsSource() {
			arr[id] = e.delays[id]
			valid[id] = true
			continue
		}
		have := false
		var acc variation.Canon
		for _, f := range g.Fanin {
			if !valid[f] {
				continue
			}
			if !have {
				acc = arr[f]
				have = true
			} else {
				acc = acc.Max(arr[f])
			}
		}
		if !have {
			continue
		}
		arr[id] = acc.Add(e.delays[id])
		valid[id] = true
	}
	return arr, valid
}

// SignOffDelay returns the p-th percentile of the design's statistical
// maximum delay (including setup) computed by block-based SSTA: the Clark
// max over every endpoint's data-pin arrival.
func (e *Engine) SignOffDelay(p float64) float64 {
	arr, valid := e.ArrivalSSTA()
	var worst variation.Canon
	found := false
	for s := 0; s < e.N.Stages; s++ {
		for _, ep := range e.N.Endpoints(s) {
			d := e.N.Gate(ep).Fanin[0]
			if !valid[d] {
				continue
			}
			if !found {
				worst = arr[d]
				found = true
			} else {
				worst = worst.Max(arr[d])
			}
		}
	}
	if !found {
		return 0
	}
	// Setup is deterministic, so it shifts the percentile directly.
	return worst.Percentile(p) + cell.Setup
}

// EndpointSlackSSTA returns the block-based canonical slack form for one
// endpoint: T - setup - arrival(driver).
func (e *Engine) EndpointSlackSSTA(ep netlist.GateID) (variation.Canon, bool) {
	arr, valid := e.ArrivalSSTA()
	d := e.N.Gate(ep).Fanin[0]
	if !valid[d] {
		return variation.Canon{}, false
	}
	return arr[d].Neg().AddConst(e.ClockPeriod - cell.Setup), true
}

// CriticalityGap reports, for diagnostics, the largest absolute difference
// between the block-based endpoint slack mean and the statistical minimum of
// the enumerated top-k path slacks, over all endpoints. Small gaps indicate
// the path enumeration captured the timing-relevant structure.
func (e *Engine) CriticalityGap(k int) float64 {
	arr, valid := e.ArrivalSSTA()
	worst := 0.0
	var a Arena
	for s := 0; s < e.N.Stages; s++ {
		for _, ep := range e.N.Endpoints(s) {
			d := e.N.Gate(ep).Fanin[0]
			if !valid[d] {
				continue
			}
			blockSlack := arr[d].Neg().AddConst(e.ClockPeriod - cell.Setup)
			paths := e.CriticalPathsIn(ep, k, &a)
			if len(paths) == 0 {
				continue
			}
			forms := make([]variation.Canon, len(paths))
			for i, p := range paths {
				forms[i] = e.PathSlack(p)
			}
			pathSlack, err := StatMin(forms)
			if err != nil {
				continue
			}
			if gap := math.Abs(blockSlack.Mean - pathSlack.Mean); gap > worst {
				worst = gap
			}
		}
	}
	return worst
}
