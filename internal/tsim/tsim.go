// Package tsim implements the gate-level timing-simulation style of DTA the
// paper's Related Work discusses (Constantin et al., DATE 2015; Greskamp et
// al., HPCA 2009): propagate scalar transition times through the activated
// gates of each cycle and flag a timing error when the latest transition at
// an endpoint violates setup. It is deterministic by construction — the
// limitation the paper calls out: because the simulator performs the timing
// analysis with fixed delays, it cannot express the nondeterministic timing
// that process variation induces, so near-critical cycles get a hard yes/no
// instead of a probability. The tests and benches contrast its verdicts with
// the SSTA-based analyzer's probabilities.
package tsim

import (
	"tsperr/internal/activity"
	"tsperr/internal/cell"
	"tsperr/internal/netlist"
	"tsperr/internal/sta"
)

// Simulator propagates nominal transition times over activated subgraphs.
type Simulator struct {
	Engine *sta.Engine
	topo   []netlist.GateID
}

// New builds a timing simulator sharing an engine's delays and clock.
func New(e *sta.Engine) (*Simulator, error) {
	topo, err := e.N.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Simulator{Engine: e, topo: topo}, nil
}

// CycleResult reports one cycle's timing outcome.
type CycleResult struct {
	// Latest is the latest endpoint transition time in ps (0 if none).
	Latest float64
	// Slack is period - setup - Latest (meaningless when no transition).
	Slack float64
	// Violation reports a deterministic setup violation.
	Violation bool
	// Active reports whether any endpoint captured a transition.
	Active bool
}

// Cycle computes the timing of cycle t from the activation trace.
func (s *Simulator) Cycle(eps []netlist.GateID, t int, tr *activity.Trace) CycleResult {
	n := s.Engine.N
	gates := n.Gates()
	tt := make([]float64, len(gates))
	valid := make([]bool, len(gates))
	for _, id := range s.topo {
		if !tr.Activated(t, id) {
			continue
		}
		g := &gates[id]
		if g.Kind.IsSource() {
			tt[id] = s.Engine.GateDelay(id).Mean
			valid[id] = true
			continue
		}
		have := false
		latest := 0.0
		for _, f := range g.Fanin {
			if valid[f] && tt[f] > latest {
				latest = tt[f]
				have = true
			}
			if valid[f] {
				have = true
			}
		}
		if !have {
			continue
		}
		tt[id] = latest + s.Engine.GateDelay(id).Mean
		valid[id] = true
	}
	var res CycleResult
	for _, ep := range eps {
		if gates[ep].Kind != cell.DFF {
			continue
		}
		d := gates[ep].Fanin[0]
		if !valid[d] {
			continue
		}
		res.Active = true
		if tt[d] > res.Latest {
			res.Latest = tt[d]
		}
	}
	if res.Active {
		res.Slack = s.Engine.ClockPeriod - cell.Setup - res.Latest
		res.Violation = res.Slack < 0
	}
	return res
}

// CountViolations runs the whole trace and counts deterministic violations —
// what an error counter attached to a timing simulation would report.
func (s *Simulator) CountViolations(eps []netlist.GateID, tr *activity.Trace) int {
	n := 0
	for t := 0; t < tr.Cycles(); t++ {
		if s.Cycle(eps, t, tr).Violation {
			n++
		}
	}
	return n
}
