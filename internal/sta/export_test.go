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
)

// KCriticalTo runs one k-critical-path search with fresh scratch.
func (e *Engine) KCriticalTo(ep netlist.GateID, k int, m Metric) []netlist.Path {
	var ps pathSearch
	return e.kCriticalTo(ep, k, m, &ps)
}
