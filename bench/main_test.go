package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsperr/internal/core"
)

// tiny shrinks a workload to a few requests so every workload runs in-process
// within a test's budget.
func tiny(w workload) (workload, int) {
	switch w.name {
	case "estimate-lowcount":
		w.programs, w.scenarios = []string{"patricia"}, []int{2}
		return w.withCheck(1, 2), 2
	case "oppoint-grid":
		return w.withCheck(1, 1), 1
	case "estimate-hit":
		return w.withCheck(2, 4), 20
	}
	return w.withCheck(2, 4), 4
}

func (w workload) withCheck(sample, window int) workload {
	w.sample, w.checkWindow = sample, window
	return w
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// at a tiny size and checks that the output checks pass and that every
// metric BENCHMARK.json declares is emitted with its declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, full := range workloads() {
		w, limit := tiny(full)
		launch := func(w workload, c childSpec) (*childReport, error) {
			return run(ctx, runConfig{
				w: w, seed: 1, seconds: 60, trace: c.trace, check: c.check,
				start: time.Now(), maxRequests: limit,
			})
		}
		for _, trace := range []bool{false, true} {
			oc, err := measureWorkload(w, 60, trace, launch)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			want := limit * children
			if trace {
				want = limit
			}
			if oc.rep.Failed != 0 || oc.rep.Sent != want {
				t.Errorf("%s trace=%v: sent %d (want %d), failed %d: %v", w.name, trace, oc.rep.Sent, want, oc.rep.Failed, oc.rep.Problems)
			}
			check := func(name, unit string) {
				m, ok := oc.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, trace, name, m.Unit, unit)
				}
			}
			if trace {
				for _, d := range bf.PerLayer {
					check(d.Name, d.Unit)
				}
			} else {
				for _, d := range bf.EndToEnd {
					check(d.Name, d.Unit)
				}
			}
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkFile pins the metric tables of this
// package to BENCHMARK.json, name for name.
func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark emits %v", e2e, e2eMetrics)
	}
	if fmt.Sprint(layer) != fmt.Sprint(layerMetricDefs) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark emits %v", layer, layerMetricDefs)
	}
}

// TestTracedPipelineMatchesHarness checks that the decomposed pipeline of
// the traced Analyze hook is byte-identical to harness.AnalyzeWithOpts,
// on a high-count and a low-count program.
func TestTracedPipelineMatchesHarness(t *testing.T) {
	ctx := context.Background()
	tr := newTracer("")
	for _, c := range []struct {
		bench     string
		scenarios int
	}{{"basicmath", 3}, {"typeset", 1}, {"patricia", 2}} {
		rep, err := tr.pipeline(ctx, c.bench, c.scenarios, core.AnalyzeOpts{}, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameEstimate(ctx, rep, c.bench, c.scenarios); msg != "" {
			t.Errorf("%s/%d: %s", c.bench, c.scenarios, msg)
		}
	}
	for _, s := range tr.snapshot() {
		if s.End < s.Start {
			t.Errorf("span %s did not end", s.Name)
		}
	}
}

// TestStreamsAreSeeded checks that a seed fixes every workload's requests
// and that estimate-miss never repeats a key.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := w.stream("fp", 1), w.stream("fp", 1), w.stream("fp", 2)
		same := func(x, y []*entry) bool {
			for i := range x {
				if !bytes.Equal(x[i].body, y[i].body) {
					return false
				}
			}
			return len(x) == len(y)
		}
		if !same(a, b) || same(a, c) {
			t.Errorf("%s: stream is not a function of the seed", w.name)
		}
		if w.hit {
			continue
		}
		seen := make(map[string]bool)
		for _, e := range append(a, w.warmup("fp")...) {
			if seen[e.key] {
				t.Errorf("%s: key %s repeats", w.name, e.body)
				break
			}
			seen[e.key] = true
		}
	}
}

// TestStreamMixIsSeedIndependent checks that every prefix of whole blocks of
// a miss workload's stream holds the same (program, scenarios) pairs on every
// seed, so that a timed phase cut short does the same work whatever the seed.
func TestStreamMixIsSeedIndependent(t *testing.T) {
	for _, name := range []string{"estimate-miss", "estimate-lowcount"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.stream("fp", 1), w.stream("fp", 2)
		mix := make(map[string]int)
		for i := range a {
			mix[fmt.Sprintf("%s/%d", a[i].bench, a[i].scenarios)]++
			mix[fmt.Sprintf("%s/%d", b[i].bench, b[i].scenarios)]--
			if (i+1)%len(w.programs) != 0 {
				continue
			}
			for k, v := range mix {
				if v != 0 {
					t.Fatalf("%s: the first %d requests differ between seeds in %s", name, i+1, k)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75)+math.Abs(q2-5.5)+math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := strings.Join(joinBoolValues([]string{"--workload", "x", "--trace", "0", "-trace", "-seed", "3"}), " ")
	if want := "--workload x --trace=0 -trace -seed 3"; got != want {
		t.Errorf("joinBoolValues = %q, want %q", got, want)
	}
}

// TestCompareVerdicts feeds -compare two sets of records: a throughput drop
// past its bound is regressed, a noisy metric is unresolved.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput, p50 []float64) string {
		var buf bytes.Buffer
		for i := range tput {
			rec := record{Workload: "estimate-miss", Metrics: map[string]reading{
				"throughput_rps": {Value: tput[i], Unit: "req/s"},
				"latency_p50_ms": {Value: p50[i], Unit: "ms"},
			}}
			b, err := json.Marshal(map[string]record{"record": rec})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", []float64{100, 101, 99, 100, 100}, []float64{10, 20, 5, 30, 10})
	b := write("b.json", []float64{50, 51, 49, 50, 50}, []float64{10, 20, 5, 30, 10})
	var out bytes.Buffer
	if err := compare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput_rps", "regressed", "latency_p50_ms", "unresolved", "of 100 req/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
