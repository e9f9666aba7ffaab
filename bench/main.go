// Command bench is the tsperrd benchmark. It drives an in-process tsperrd
// (server.New wired like cmd/tsperrd's defaults, behind an httptest server
// on loopback) with seeded closed-loop workloads, times every request at the
// client, checks every output, and prints end-to-end metrics; with -trace it
// replays the workload with span-recording analyze hooks and prints
// per-layer metrics instead. See README.md.
//
// Usage (from this directory):
//
//	go run .                                  every workload, untraced
//	go run . -workload estimate-miss -seed 7  one workload
//	go run . -trace                           per-layer metrics
//	go run . -compare a.json b.json           compare two sets of runs
//
// Each workload runs in child processes (re-executions of this binary), so
// the harness's process-global frameworks and memos never carry over from
// one workload, or one set-up measurement, to the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// processStart is as close to the child's process start as Go code gets;
// setup_s counts from here.
var processStart = time.Now()

// children is how many child processes an untraced run starts. Each sets
// up a fresh daemon and serves 1/children of the timed phase: setup_s is the
// median of their set-ups, and the pooled timed phases sample the host over
// the whole run rather than in one stretch, which matters on a shared
// machine whose speed drifts over tens of seconds.
const children = 3

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the end-to-end metrics of an untraced run, measured on
// every workload. latency_p99_ms and failed_share are printed as well but
// are not part of the JSON result: p99 has ten samples beyond it only on
// the workloads that complete 1000 requests, and failed_share is 0 on a
// passing run.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetricDefs are the per-layer metrics of a traced run, measured on every
// workload. Workload-specific layer numbers (oppoint sub-requests, the
// surrogate counterfactual, cache shares) are printed but not part of the
// JSON result.
var layerMetricDefs = []metricDef{
	{"server.self_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.hash_us", "us", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"cfg.build_ms", "ms", "lower"},
	{"cpu.sim_ms", "ms", "lower"},
	{"cpu.minst_per_s", "Minst/s", "higher"},
	{"cpu.insts_per_req", "count", "lower"},
	{"errormodel.control_ms", "ms", "lower"},
	{"errormodel.conditionals_ms", "ms", "lower"},
	{"errormodel.marginals_ms", "ms", "lower"},
	{"core.estimate_ms", "ms", "lower"},
	{"core.quantiles_ms", "ms", "lower"},
	{"core.layer_gap_pct", "%", "lower"},
	{"harness.setup_ms", "ms", "lower"},
	{"process.alloc_kb_per_req", "KB", "lower"},
	{"process.mallocs_per_req", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	compare  bool
	// child and check are set only on re-executions of this binary.
	child bool
	check bool
}

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.BoolVar(&o.trace, "trace", false, "trace the run and report per-layer metrics (also -trace 0|1)")
	fs.BoolVar(&o.compare, "compare", false, "compare two files of recorded runs: -compare a.json b.json")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.check, "check", false, "internal: recompute the sampled keys in-process")
	if err := fs.Parse(joinBoolValues(args)); err != nil {
		return o, nil, err
	}
	if o.seconds <= 0 {
		return o, nil, errors.New("-seconds must be positive")
	}
	return o, fs.Args(), nil
}

// joinBoolValues rewrites "-trace 0" and "--trace 1" into "-trace=0" and
// "-trace=1", the form the flag package needs for a boolean value.
func joinBoolValues(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	o, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx := context.Background()
	switch {
	case o.compare:
		if len(rest) != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		if err := compare(os.Stdout, rest[0], rest[1]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	case o.child:
		if err := childMain(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		ok, err := parentMain(ctx, o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// childMain runs one workload in this process and prints its report as
// JSON on the last line of standard output.
func childMain(ctx context.Context, o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	rc := runConfig{
		w: w, seed: o.seed, seconds: o.seconds, trace: o.trace,
		check: o.check, start: processStart,
	}
	if o.trace {
		rc.spansPath = filepath.Join(os.TempDir(), fmt.Sprintf("tsperr-bench-spans-%s-%d.json", w.name, o.seed))
		fmt.Fprintf(os.Stderr, "bench: %s spans -> %s\n", w.name, rc.spansPath)
	}
	rep, err := run(ctx, rc)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// childSpec is one child's share of a run.
type childSpec struct {
	seconds      float64
	check, trace bool
}

// spawn runs one child process and decodes its report.
func spawn(ctx context.Context, o options, w workload, c childSpec) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-check=" + strconv.FormatBool(c.check), "-trace=" + strconv.FormatBool(c.trace)}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s child: bad report: %w", w.name, err)
	}
	return &rep, nil
}

// reading is one printed metric value.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's result as printed.
type outcome struct {
	rep     *childReport
	metrics map[string]reading
	order   []string
}

func (oc *outcome) set(name string, v float64, unit string) {
	if _, ok := oc.metrics[name]; !ok {
		oc.order = append(oc.order, name)
	}
	oc.metrics[name] = reading{Value: v, Unit: unit}
}

// launcher runs one child of a workload.
type launcher func(w workload, c childSpec) (*childReport, error)

// measureWorkload runs one workload's children and assembles its metrics.
// Untraced, the timed phase is split over children fresh daemons; traced,
// an untraced and a traced child each serve half of it, and their
// throughputs give the tracing overhead.
func measureWorkload(w workload, seconds float64, trace bool, launch launcher) (*outcome, error) {
	oc := &outcome{metrics: make(map[string]reading)}
	if !trace {
		parts := make([]*childReport, children)
		for i := range parts {
			r, err := launch(w, childSpec{seconds: seconds / children, check: i == children-1})
			if err != nil {
				return nil, err
			}
			parts[i] = r
		}
		oc.rep = mergeChildren(parts)
		oc.set("setup_s", oc.rep.SetupS, "s")
		for _, m := range oc.rep.Metrics {
			// p99 is reported only where ten samples lie beyond it.
			if m.Name == "latency_p99_ms" && len(oc.rep.Latencies) < 1000 {
				continue
			}
			oc.set(m.Name, m.Value, m.Unit)
		}
	} else {
		base, err := launch(w, childSpec{seconds: seconds / 2})
		if err != nil {
			return nil, err
		}
		r, err := launch(w, childSpec{seconds: seconds / 2, check: true, trace: true})
		if err != nil {
			return nil, err
		}
		oc.rep = r
		for _, m := range r.Metrics {
			switch m.Name {
			case "process.alloc_kb_per_req", "process.mallocs_per_req":
				// Allocation counts come from the untraced run: the tracer
				// allocates too.
				m.Value = base.value(m.Name)
			}
			oc.set(m.Name, m.Value, m.Unit)
		}
		bt, tt := base.value("throughput_rps"), r.value("throughput_rps")
		oc.set("trace.overhead_pct", 100*(bt-tt)/bt, "%")
		// Problems of the untraced baseline count too.
		oc.rep.Failed += base.Failed
		oc.rep.Problems = append(oc.rep.Problems, base.Problems...)
	}
	oc.set("failed_share", float64(oc.rep.Failed)/float64(max(oc.rep.Sent, 1)), "ratio")
	oc.set("sent", float64(oc.rep.Sent), "count")
	oc.set("ok", float64(oc.rep.OK), "count")
	oc.set("failed", float64(oc.rep.Failed), "count")
	return oc, nil
}

// mergeChildren merges the children of an untraced run: counts add up, throughput
// and latency percentiles come from the pooled timed phases, set-up time is
// the median set-up, and every other metric the median over children.
// Children share a seed, so their results digests must agree.
func mergeChildren(parts []*childReport) *childReport {
	out := &childReport{Digest: parts[0].Digest}
	var setups []float64
	for _, p := range parts {
		out.Sent += p.Sent
		out.OK += p.OK
		out.Failed += p.Failed
		out.Problems = append(out.Problems, p.Problems...)
		out.WallS += p.WallS
		out.Latencies = append(out.Latencies, p.Latencies...)
		setups = append(setups, p.SetupS)
		if p.Digest != out.Digest {
			out.problem("results_digest %s of one child differs from %s of another", p.Digest, out.Digest)
		}
	}
	out.SetupS = median(setups)
	out.addLoad()
	for _, m := range parts[0].Metrics {
		if !math.IsNaN(out.value(m.Name)) {
			continue
		}
		var v []float64
		for _, p := range parts {
			v = append(v, p.value(m.Name))
		}
		out.add(m.Name, median(v), m.Unit)
	}
	return out
}

// record is the per-workload line -compare reads.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	Revision   string             `json:"revision,omitempty"`
	Digest     string             `json:"results_digest"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]reading `json:"metrics"`
}

func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// parentMain runs the selected workloads and prints, per workload, one
// "workload metric value unit" line per metric and a {"record": ...} line,
// then the result object as the last line. It reports whether every output
// check passed.
func parentMain(ctx context.Context, o options, out io.Writer) (bool, error) {
	ws := workloads()
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return false, err
		}
		ws = []workload{w}
	}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetricDefs
	}
	result := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]reading)}
	for _, w := range ws {
		oc, err := measureWorkload(w, o.seconds, o.trace, func(w workload, c childSpec) (*childReport, error) {
			return spawn(ctx, o, w, c)
		})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "# %s: %s\n", w.name, w.why)
		for _, name := range oc.order {
			m := oc.metrics[name]
			fmt.Fprintf(out, "%s %s %s %s\n", w.name, name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		}
		fmt.Fprintf(out, "%s results_digest %s\n", w.name, oc.rep.Digest)
		for _, p := range oc.rep.Problems {
			fmt.Fprintf(out, "%s FAILED CHECK: %s\n", w.name, p)
		}
		rec := record{
			Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Revision: revision(), Digest: oc.rep.Digest, Problems: oc.rep.Problems, Metrics: oc.metrics,
		}
		b, err := json.Marshal(map[string]record{"record": rec})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "%s\n", b)

		result.Attempted += oc.rep.Sent
		result.Failed += oc.rep.Failed
		if oc.rep.Failed > 0 {
			result.Correct = false
		}
		for _, d := range defs {
			m, ok := oc.metrics[d.name]
			if !ok {
				return false, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
			}
			name := d.name
			if len(ws) > 1 {
				name = w.name + "/" + d.name
			}
			result.Metrics[name] = m
		}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", b)
	return result.Correct, nil
}
