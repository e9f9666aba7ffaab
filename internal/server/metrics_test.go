package server

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestMetricsHistogramsGolden renders the two latency histograms and the
// shadow-residual histogram for fixed observations and compares the whole
// exposition with a golden: bucket edges, a latency sum that truncates to
// whole microseconds and a residual sum that rounds to thousandths.
func TestMetricsHistogramsGolden(t *testing.T) {
	m := newMetrics()
	for _, d := range []time.Duration{0, 1500 * time.Nanosecond, 500 * time.Microsecond, time.Millisecond,
		time.Millisecond + time.Nanosecond, 7300 * time.Microsecond, 2200 * time.Millisecond, 90 * time.Second} {
		m.latency.observeDuration(d)
	}
	for _, d := range []time.Duration{999 * time.Nanosecond, 3 * time.Second, 61 * time.Second} {
		m.batchLatency.observeDuration(d)
	}
	for _, r := range []float64{0, 0.0005, 0.01, 0.0104, 0.0126, 0.3, 1.5, 5} {
		m.surrogateResidual.observe(r)
	}
	var buf bytes.Buffer
	m.render(&buf, gauges{surrogate: &surrogateGauges{mode: SurrogateShadow}})
	golden, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(golden) {
		t.Errorf("exposition drifted from the golden:\n got: %s\nwant: %s", got, golden)
	}
}
