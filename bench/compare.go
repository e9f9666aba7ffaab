package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the current directory or its
// parent (the benchmark runs from the repository root or from bench/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, errors.Join(errs...)
}

// readRecords collects the {"record": ...} lines of a file of benchmark
// output: metric values keyed by workload then metric, and every results
// digest seen, keyed by workload and seed.
func readRecords(path string, digests map[string]map[string]bool) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"record":`)) {
			continue
		}
		var r struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		w := r.Record.Workload
		if out[w] == nil {
			out[w] = make(map[string][]float64)
		}
		names := make([]string, 0, len(r.Record.Metrics))
		for name := range r.Record.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out[w][name] = append(out[w][name], r.Record.Metrics[name].Value)
		}
		ws := fmt.Sprintf("%s seed %d", w, r.Record.Seed)
		if digests[ws] == nil {
			digests[ws] = make(map[string]bool)
		}
		digests[ws][r.Record.Digest] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no record lines", path)
	}
	return out, nil
}

// compare prints, for every (workload, metric) pair present in both files,
// each side's median and quartiles and the change of B against A. A change
// worse than the metric's BENCHMARK.json bound is "regressed"; a pair whose
// spread on either side exceeds the bound is "unresolved", since no change
// smaller than the noise can be told apart from none. Metrics without a
// bound are reported without a verdict.
func compare(out io.Writer, pathA, pathB string) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	type rule struct {
		unit, better string
		bound        float64
	}
	rules := make(map[string]rule)
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{m.Unit, m.Better, m.Bound}
	}
	for _, m := range bf.PerLayer {
		rules[m.Name] = rule{m.Unit, m.Better, math.NaN()}
	}
	digests := make(map[string]map[string]bool)
	a, err := readRecords(pathA, digests)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB, digests)
	if err != nil {
		return err
	}
	var workloadNames []string
	for w := range a {
		if _, ok := b[w]; ok {
			workloadNames = append(workloadNames, w)
		}
	}
	sort.Strings(workloadNames)
	fmt.Fprintf(out, "%-18s %-28s %-34s %-34s %-26s %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A (base: A median)", "verdict")
	for _, w := range workloadNames {
		var names []string
		for name := range a[w] {
			if _, ok := rules[name]; ok {
				if _, ok := b[w][name]; ok {
					names = append(names, name)
				}
			}
		}
		sort.Strings(names)
		for _, name := range names {
			r := rules[name]
			va, vb := a[w][name], b[w][name]
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			delta := (b2 - a2) / a2
			worse := delta
			if r.better == "higher" {
				worse = -delta
			}
			spread := math.Max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "no bound"
			if !math.IsNaN(r.bound) {
				switch {
				case spread > r.bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% of median > bound %.1f%%)", 100*spread, 100*r.bound)
				case worse > r.bound:
					verdict = fmt.Sprintf("regressed (worse by %.1f%% > bound %.1f%%)", 100*worse, 100*r.bound)
				default:
					verdict = fmt.Sprintf("within bound %.1f%%", 100*r.bound)
				}
			}
			fmt.Fprintf(out, "%-18s %-28s %-34s %-34s %-26s %s\n", w, name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d) %s", a2, a1, a3, len(va), r.unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d) %s", b2, b1, b3, len(vb), r.unit),
				fmt.Sprintf("%+.2f%% of %.4g %s", 100*delta, a2, r.unit), verdict)
		}
	}
	// Runs of one workload and seed must agree on every simulated result,
	// whichever commit made them.
	var keys []string
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var ds []string
		for d := range digests[k] {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		verdict := "identical in every run"
		if len(ds) > 1 {
			verdict = "DIFFERS between runs"
		}
		fmt.Fprintf(out, "results_digest %s: %s (%s)\n", k, verdict, strings.Join(ds, ", "))
	}
	return nil
}
