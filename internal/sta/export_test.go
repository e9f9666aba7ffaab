package sta

import "tsperr/internal/netlist"

// Hooks for the external-package tests, which import the netlist generators
// (package gen imports sta, so those tests cannot live in package sta).

type Metric = nominalMetric

const (
	MetricNominal      = metricNominal
	MetricWorst        = metricWorst
	MetricBest         = metricBest
	StatMinGreedyLimit = statMinGreedyLimit
	GridBits           = gridBits
)

// KCriticalTo runs one k-critical-path search with fresh scratch.
func (e *Engine) KCriticalTo(ep netlist.GateID, k int, m Metric) []netlist.Path {
	return e.kCriticalTo(ep, k, m, new(Arena))
}

// MetricDelay returns gate id's scalar delay on the search grid under m.
func (e *Engine) MetricDelay(id netlist.GateID, m Metric) float64 {
	e.prepare()
	return e.delay[m][id]
}

// SearchSize runs CriticalPaths' three searches on a fresh arena and
// reports the states they pushed in all, and the most states and heap
// entries any of them held when it ended.
func (e *Engine) SearchSize(ep netlist.GateID, k int) (pushed, states, heap int) {
	var a Arena
	for m := range numMetrics {
		e.kCriticalTo(ep, k, m, &a)
		states, heap = max(states, int(a.nstates)), max(heap, int(a.nheap))
	}
	return a.Pushed(), states, heap
}
