// Package gdta implements the graph-based dynamic timing analysis the paper
// contrasts with in Related Work (Cherupalli & Sartori, ICCAD 2017): instead
// of enumerating the k most critical paths per endpoint and testing their
// activation (the path-based method of internal/dta), it propagates arrival
// times over the *activated subgraph* of each cycle — every gate that
// toggled — and reads the stage DTS off the endpoint arrivals directly.
//
// The graph-based method is exact over all activated paths (path-based
// analysis can only consider the k paths it enumerated) and costs O(gates)
// per cycle, but it must re-traverse the whole netlist every cycle, which is
// why the paper's framework reserves gate-level analysis for short
// basic-block sequences and keeps this method as a cross-check. Under SSTA
// arrivals are canonical Gaussian forms merged with Clark's max operator.
package gdta

import (
	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
	"tsperr/internal/variation"
)

// Analyzer performs graph-based DTA using the gate delays and clock period
// of an existing SSTA engine, so results are directly comparable with the
// path-based analyzer built on the same engine.
type Analyzer struct {
	Engine *sta.Engine
	topo   []netlist.GateID
}

// New builds a graph-based analyzer.
func New(e *sta.Engine) (*Analyzer, error) {
	topo, err := e.N.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Analyzer{Engine: e, topo: topo}, nil
}

// StageDTS returns the canonical DTS form of the given endpoints at cycle t:
// clock period minus setup minus the statistical maximum arrival over
// activated paths into those endpoints. ok is false when no activated path
// reaches any endpoint that cycle.
func (a *Analyzer) StageDTS(eps []netlist.GateID, t int, tr *activity.Trace) (variation.Canon, bool) {
	n := a.Engine.N
	gates := n.Gates()
	// arrival[g] is the canonical arrival of the latest activated path
	// ending at activated gate g (inclusive); valid[g] marks gates reached
	// by an activated path from an activated source.
	arrival := make([]variation.Canon, len(gates))
	valid := make([]bool, len(gates))
	for _, id := range a.topo {
		if !tr.Activated(t, id) {
			continue
		}
		g := &gates[id]
		if g.Kind.IsSource() {
			arrival[id] = a.Engine.GateDelay(id) // clock-to-Q or 0
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
				acc = arrival[f]
				have = true
			} else {
				acc = acc.Max(arrival[f])
			}
		}
		if !have {
			continue // activated but no activated fanin path: glitch source
		}
		arrival[id] = acc.Add(a.Engine.GateDelay(id))
		valid[id] = true
	}
	var worst variation.Canon
	found := false
	for _, ep := range eps {
		if gates[ep].Kind != cell.DFF {
			continue
		}
		d := gates[ep].Fanin[0]
		if !valid[d] {
			continue
		}
		if !found {
			worst = arrival[d]
			found = true
		} else {
			worst = worst.Max(arrival[d])
		}
	}
	if !found {
		return variation.Canon{}, false
	}
	return worst.Neg().AddConst(a.Engine.ClockPeriod - cell.Setup), true
}

// InstDTS mirrors Algorithm 2 over the graph-based stage DTS.
func (a *Analyzer) InstDTS(t int, tr *activity.Trace, keep func(*netlist.Gate) bool) (variation.Canon, bool) {
	if keep == nil {
		keep = func(*netlist.Gate) bool { return true }
	}
	var acc variation.Canon
	found := false
	for s := 0; s < a.Engine.N.Stages; s++ {
		eps := a.Engine.N.EndpointsOf(s, keep)
		if len(eps) == 0 {
			continue
		}
		f, ok := a.StageDTS(eps, t+s, tr)
		if !ok {
			continue
		}
		if !found {
			acc = f
			found = true
		} else {
			acc = acc.Min(f)
		}
	}
	return acc, found
}
