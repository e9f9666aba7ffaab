// Package netlist represents gate-level processor netlists as the graph N of
// Section 3 of the paper: vertices are gates, edges are nets, and endpoints
// (flip-flops and ports) delimit timing paths. It provides construction,
// validation, topological ordering, and the path machinery Algorithm 1
// consumes.
package netlist

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tsperr/internal/cell"
)

// GateID indexes a gate within a Netlist.
type GateID int32

// Gate is one vertex of the netlist graph.
type Gate struct {
	ID   GateID
	Kind cell.Kind
	Name string
	// Fanin lists the driver of each input pin, in pin order.
	Fanin []GateID
	// Stage is the pipeline stage the gate belongs to (combinational gates)
	// or whose output register bank it is part of (DFFs).
	Stage int
	// X, Y are normalized die coordinates in [0, 1), used by the spatial
	// process-variation model.
	X, Y float64
	// Data marks a *data endpoint* in the paper's sense: an endpoint that
	// holds operands, results, condition codes, or intermediate values.
	// Endpoints with Data == false are control endpoints.
	Data bool
	// Unused declares that the gate's output intentionally drives nothing
	// (e.g. the final carry-out of an adder whose width is fixed). The
	// structural linter flags dangling outputs unless they are declared
	// here.
	Unused bool
}

// IsEndpoint reports whether the gate terminates timing paths (flip-flop).
func (g *Gate) IsEndpoint() bool { return g.Kind == cell.DFF }

// Netlist is the graph N. Gates are stored densely and identified by GateID.
type Netlist struct {
	Name   string
	Stages int

	gates  []Gate
	fanout [][]GateID
	topo   []GateID // combinational evaluation order, sources first
	dirty  bool
}

// New returns an empty netlist with the given number of pipeline stages.
func New(name string, stages int) *Netlist {
	return &Netlist{Name: name, Stages: stages, dirty: true}
}

// Add appends a gate and returns its ID. Fanin IDs must already exist.
func (n *Netlist) Add(kind cell.Kind, name string, stage int, fanin ...GateID) GateID {
	id := GateID(len(n.gates))
	for _, f := range fanin {
		if int(f) < 0 || int(f) >= len(n.gates) {
			panic(fmt.Sprintf("netlist: fanin %d of %q out of range", f, name))
		}
	}
	if want := kind.NumInputs(); len(fanin) != want {
		panic(fmt.Sprintf("netlist: %v %q needs %d inputs, got %d", kind, name, want, len(fanin)))
	}
	n.gates = append(n.gates, Gate{ID: id, Kind: kind, Name: name, Stage: stage, Fanin: fanin})
	n.dirty = true
	return id
}

// Gate returns the gate with the given ID.
func (n *Netlist) Gate(id GateID) *Gate { return &n.gates[id] }

// NumGates returns the number of gates.
func (n *Netlist) NumGates() int { return len(n.gates) }

// Gates returns the gate slice (read-only by convention).
func (n *Netlist) Gates() []Gate { return n.gates }

// SetPlacement assigns die coordinates to a gate.
func (n *Netlist) SetPlacement(id GateID, x, y float64) {
	n.gates[id].X = x
	n.gates[id].Y = y
}

// MarkData marks a gate as a data endpoint.
func (n *Netlist) MarkData(id GateID) { n.gates[id].Data = true }

// MarkUnused declares that a gate's output intentionally drives nothing,
// exempting it from the linter's dangling-gate rule.
func (n *Netlist) MarkUnused(id GateID) { n.gates[id].Unused = true }

// Endpoints returns the endpoint IDs of a pipeline stage, matching E(N, s) of
// Table 1. If dataOnly or controlOnly filters are needed, use EndpointsOf.
func (n *Netlist) Endpoints(stage int) []GateID {
	return n.EndpointsOf(stage, func(*Gate) bool { return true })
}

// EndpointsOf returns the endpoints of a stage accepted by keep.
func (n *Netlist) EndpointsOf(stage int, keep func(*Gate) bool) []GateID {
	var out []GateID
	for i := range n.gates {
		g := &n.gates[i]
		if g.IsEndpoint() && g.Stage == stage && keep(g) {
			out = append(out, g.ID)
		}
	}
	return out
}

// ControlEndpoints returns the control endpoints of a stage.
func (n *Netlist) ControlEndpoints(stage int) []GateID {
	return n.EndpointsOf(stage, func(g *Gate) bool { return !g.Data })
}

// DataEndpoints returns the data endpoints of a stage.
func (n *Netlist) DataEndpoints(stage int) []GateID {
	return n.EndpointsOf(stage, func(g *Gate) bool { return g.Data })
}

// Fanout returns the fanout adjacency (computed lazily).
func (n *Netlist) Fanout(id GateID) []GateID {
	n.ensureBuilt()
	return n.fanout[id]
}

// TopoOrder returns all gates in an order where every combinational gate
// follows its fanins. Sources (inputs, constants, flip-flop outputs) come
// first. An error is returned if the combinational logic contains a cycle.
func (n *Netlist) TopoOrder() ([]GateID, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return n.topo, nil
}

func (n *Netlist) ensureBuilt() {
	if err := n.build(); err != nil {
		panic(err)
	}
}

func (n *Netlist) build() error {
	if !n.dirty {
		return nil
	}
	m := len(n.gates)
	n.fanout = make([][]GateID, m)
	indeg := make([]int, m)
	for i := range n.gates {
		g := &n.gates[i]
		if g.Kind.IsSource() {
			continue // sources do not depend on fanins within a cycle
		}
		indeg[g.ID] = len(g.Fanin)
	}
	for i := range n.gates {
		g := &n.gates[i]
		for _, f := range g.Fanin {
			n.fanout[f] = append(n.fanout[f], g.ID)
		}
	}
	// Kahn's algorithm over the combinational graph: DFF/INPUT start ready.
	queue := make([]GateID, 0, m)
	for i := range n.gates {
		if indeg[i] == 0 {
			queue = append(queue, GateID(i))
		}
	}
	topo := make([]GateID, 0, m)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		topo = append(topo, id)
		for _, s := range n.fanout[id] {
			if n.gates[s].Kind.IsSource() {
				continue // edge into a DFF's D pin does not gate evaluation
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != m {
		// Every non-source gate with remaining in-degree sits on or behind a
		// cycle; naming them turns "somewhere in 5000 gates" into a fixable
		// report.
		const maxNamed = 8
		var stuck []string
		extra := 0
		for i := range n.gates {
			g := &n.gates[i]
			if g.Kind.IsSource() || indeg[g.ID] == 0 {
				continue
			}
			if len(stuck) < maxNamed {
				stuck = append(stuck, fmt.Sprintf("%s(%v, stage %d)", g.Name, g.Kind, g.Stage))
			} else {
				extra++
			}
		}
		more := ""
		if extra > 0 {
			more = fmt.Sprintf(" and %d more", extra)
		}
		return fmt.Errorf("netlist %q: combinational cycle detected (%d of %d gates ordered); unresolved gates: %s%s",
			n.Name, len(topo), m, strings.Join(stuck, ", "), more)
	}
	n.topo = topo
	n.dirty = false
	return nil
}

// Validate checks structural invariants: fanin arities, stage ranges, and
// combinational acyclicity.
func (n *Netlist) Validate() error {
	for i := range n.gates {
		g := &n.gates[i]
		if want := g.Kind.NumInputs(); len(g.Fanin) != want {
			return fmt.Errorf("netlist %q: gate %q has %d fanins, want %d",
				n.Name, g.Name, len(g.Fanin), want)
		}
		if g.Stage < 0 || g.Stage >= n.Stages {
			return fmt.Errorf("netlist %q: gate %q stage %d outside [0,%d)",
				n.Name, g.Name, g.Stage, n.Stages)
		}
	}
	return n.build()
}

// Path is an ordered set of gates per Definition 3.1: it starts at a source
// (the only endpoint in the set, or a primary input), walks through
// combinational gates, and its last gate drives an endpoint. Endpoint records
// the flip-flop that captures the path.
type Path struct {
	Gates    []GateID
	Endpoint GateID
	// NominalDelay caches the summed nominal delay including the endpoint's
	// setup time; it is the key paths are ranked by before SSTA refines them.
	NominalDelay float64
}

// String renders a short description for diagnostics.
func (p Path) String() string {
	return fmt.Sprintf("path(%d gates -> ep %d, %.1fps)", len(p.Gates), p.Endpoint, p.NominalDelay)
}

// SortPathsByDelay sorts paths most-critical (longest nominal delay) first,
// breaking ties by endpoint and then by gate sequence, source first, gate ID
// by gate ID (a proper prefix first). Distinct paths never compare equal,
// so the order is a function of the set, not of the input order.
func SortPathsByDelay(ps []Path) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := &ps[i], &ps[j]
		if a.NominalDelay > b.NominalDelay {
			return true
		}
		if a.NominalDelay < b.NominalDelay {
			return false
		}
		if a.Endpoint != b.Endpoint {
			return a.Endpoint < b.Endpoint
		}
		return slices.Compare(a.Gates, b.Gates) < 0
	})
}
