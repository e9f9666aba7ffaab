package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"tsperr/internal/core"
	"tsperr/internal/server"
)

// Request paths the workloads drive.
const (
	pathEstimate = "/v1/estimate"
	pathOppoint  = "/v1/oppoint"
)

// highCount are the Table 2 programs whose Eq. (14) quadrature range
// lambda±8sigma stays above the lambda=5000 normal switch: their responses
// encode in about a millisecond, so the exact pipeline dominates a miss.
var highCount = []string{
	"basicmath", "bitcount", "dijkstra", "pgp.encode", "pgp.decode",
	"tiff2bw", "typeset", "ghostscript", "gsm.decode",
}

// lowCount are the programs whose lambda±8sigma reaches below 5000, where
// the term-by-term Poisson CDF behind every quantile dominates the response.
var lowCount = []string{"patricia", "stringsearch", "gsm.encode"}

// oppointTargets are the target error rates an oppoint-grid search draws.
var oppointTargets = []float64{1e-3, 2e-3, 3e-3, 5e-3}

// The oppoint-grid condition grid: 2 voltages x 2 temperatures, exactly the
// harness's per-condition framework registry bound.
var (
	oppointVoltages = []float64{1.0, 1.1}
	oppointTemps    = []float64{25, 85}
)

// entry is one request the benchmark can send. key identifies the result
// the server computes for it: the canonical request hash for estimates, and
// benchmark/scenarios for oppoint searches (the identity its estimate
// sub-requests carry into the analyze hook).
type entry struct {
	path      string
	body      []byte
	key       string
	bench     string
	scenarios int
	opts      core.AnalyzeOpts
	target    float64
}

// workload is one traffic mix, sent by a closed loop of clients. The seed
// drives the order of requests and the draws, not the mix of programs and
// scenario counts, so runs on different seeds do the same work.
type workload struct {
	name string
	why  string
	// clients is the closed loop's client count, each on one keep-alive
	// connection: tsperrd's callers (DSE scripts, tsperr -batch, oppoint
	// sweeps) each wait for their reply. One caller unless a workload needs
	// more, not one per core: with two, each request also waits for the
	// other's share of the two cores, and on a shared host the spread of
	// throughput and p90 between runs was up to twice as wide (README.md,
	// "Noise").
	clients int
	// programs and scenarios span the request space of the miss and search
	// workloads; scenarios is a symmetric range (see pairedRound).
	// estimate-hit's keys are hitRanking.
	programs  []string
	scenarios []int
	// hit marks the cache-hit workload and oppoint the search workload;
	// the remaining two are all-miss estimate workloads.
	hit     bool
	oppoint bool
	// sample is how many stream keys the output check recomputes in-process,
	// drawn from the first checkWindow positions of the stream.
	sample      int
	checkWindow int
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// workloads lists the benchmark's workloads in run order.
func workloads() []workload {
	return []workload{
		{
			name:      "estimate-miss",
			why:       "distinct keys over the 9 high-count programs: the exact cpu, cfg, errormodel and core pipeline on every request",
			clients:   1,
			programs:  highCount,
			scenarios: rangeInts(1, 32),
			sample:    8, checkWindow: 64,
		},
		{
			name: "estimate-lowcount",
			why:  "distinct keys over the 3 low-count programs: the Eq. (14) CDF behind each response's quantiles is most of the latency",
			// Two clients: a request is one single-threaded half-second
			// encode, so two run side by side without waiting for each
			// other, and the run serves the ~100 requests p90 needs.
			clients: 2,
			// stringsearch at 2 scenarios stays above the normal switch, so
			// the range starts at 3 to keep every key in the low-count regime.
			programs:  lowCount,
			scenarios: rangeInts(3, 16),
			sample:    3, checkWindow: 8,
		},
		{
			name:    "estimate-hit",
			why:     "Zipf over 36 primed keys: every request is an LRU hit, so admission, hashing, the cache and the response encode are the cost",
			clients: 1,
			hit:     true,
			sample:  6, checkWindow: 36,
		},
		{
			name:      "oppoint-grid",
			why:       "operating-point searches over a 2x2 voltage/temperature grid: per-condition retraining through harness.AnalyzeAtPoint",
			clients:   1,
			programs:  highCount,
			scenarios: rangeInts(1, 16),
			oppoint:   true,
			sample:    2, checkWindow: 4,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func estimateEntry(fp, bench string, scenarios int, opts core.AnalyzeOpts) *entry {
	req := server.Request{
		Benchmark:    bench,
		Scenarios:    scenarios,
		Retries:      opts.Retries,
		MinScenarios: opts.MinScenarios,
		FailFast:     opts.FailFast,
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a plain struct of ints, strings and bools always marshals
	}
	return &entry{path: pathEstimate, body: body, key: req.Key(fp), bench: bench, scenarios: scenarios, opts: opts}
}

// oppointKey is the identity of a search: its benchmark and scenario count,
// the only request fields its estimate sub-requests pass to the analyze hook.
func oppointKey(bench string, scenarios int) string {
	return fmt.Sprintf("%s/%d", bench, scenarios)
}

func oppointEntry(bench string, scenarios int, target float64) *entry {
	body, err := json.Marshal(server.OppointRequest{
		Benchmark:       bench,
		Scenarios:       scenarios,
		TargetErrorRate: target,
		Voltages:        oppointVoltages,
		Temps:           oppointTemps,
	})
	if err != nil {
		panic(err)
	}
	return &entry{path: pathOppoint, body: body, key: oppointKey(bench, scenarios), bench: bench, scenarios: scenarios, target: target}
}

// missRounds is how many rounds of distinct keys an all-miss workload has:
// retries 0-8 times fail_fast off/on. Both knobs are in the canonical hash
// but change nothing on a fault-free run, so each round repeats the same
// work under new keys.
const missRounds = 18

// stream returns the workload's timed request sequence for a seed; clients
// take requests from it in order until the run's time is up.
func (w workload) stream(fp string, seed uint64) []*entry {
	rng := newRNG(seed, 1)
	var out []*entry
	switch {
	case w.hit:
		keys := w.hitKeys(fp)
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
		out = make([]*entry, 200000)
		for i := range out {
			out[i] = keys[z.Uint64()]
		}
	case w.oppoint:
		for _, j := range w.pairedRound(rng) {
			out = append(out, oppointEntry(j.bench, j.scenarios, oppointTargets[rng.IntN(len(oppointTargets))]))
		}
	default:
		for r := 0; r < missRounds; r++ {
			opts := core.AnalyzeOpts{Retries: r % 9, FailFast: r >= 9}
			for _, j := range w.pairedRound(rng) {
				out = append(out, estimateEntry(fp, j.bench, j.scenarios, opts))
			}
		}
	}
	return out
}

// job is one (program, scenario count) pair.
type job struct {
	bench     string
	scenarios int
}

// pairedRound returns every (program, scenarios) pair of the workload once,
// in blocks of one request per program in seeded order. Block 2k gives each
// program a scenario count from the lower half of the (symmetric) range and
// block 2k+1 its mirror image. Each program walks the lower half in a fixed
// order that covers it evenly from the start (spreadOrder, rotated by the
// program's index), so every prefix of whole blocks holds the same
// (program, scenarios) pairs on every seed: a run's mix of work does not
// depend on the seed, however few requests the timed phase serves.
func (w workload) pairedRound(rng *rand.Rand) []job {
	n := len(w.scenarios)
	half := n / 2
	order := spreadOrder(half)
	var out []job
	block := func(pick func(p int) int) {
		for _, p := range rng.Perm(len(w.programs)) {
			out = append(out, job{w.programs[p], w.scenarios[pick(p)]})
		}
	}
	for b := 0; b < 2*half; b++ {
		block(func(p int) int {
			i := order[(b/2+p)%half]
			if b%2 == 1 {
				i = n - 1 - i
			}
			return i
		})
	}
	if n%2 == 1 {
		block(func(int) int { return half })
	}
	return out
}

// spreadOrder returns 0..n-1 in van der Corput order (0, n/2, n/4, 3n/4,
// ...), so that every prefix samples the whole range about evenly.
func spreadOrder(n int) []int {
	seen := make([]bool, n)
	out := make([]int, 0, n)
	for i := 0; len(out) < n; i++ {
		// The base-2 radical inverse of i: its bits mirrored about the point.
		r, f := 0.0, 0.5
		for k := i; k > 0; k >>= 1 {
			r += f * float64(k&1)
			f /= 2
		}
		if j := int(r * float64(n)); !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// hitRanking is estimate-hit's 36 keys, the 9 high-count programs at 1, 2,
// 4 and 8 scenarios, in popularity order (rank 0 is the hottest). A hit
// costs about its response encode, so the keys are ranked by the seed
// commit's encode cost, cheapest first, with the single-scenario keys (which
// skip the Eq. (14) quadrature) last: neighbouring ranks then cost about the
// same, and the median and p90 fall inside bands of similar keys instead of
// jumping between the cost levels of two keys from run to run. The order is
// fixed so that the seed drives only the Zipf draws.
var hitRanking = []job{
	{"tiff2bw", 4}, {"tiff2bw", 8}, {"ghostscript", 8}, {"dijkstra", 4},
	{"pgp.decode", 8}, {"basicmath", 8}, {"pgp.decode", 4}, {"basicmath", 4},
	{"gsm.decode", 8}, {"bitcount", 4}, {"ghostscript", 4}, {"dijkstra", 2},
	{"tiff2bw", 2}, {"gsm.decode", 4}, {"gsm.decode", 2}, {"pgp.decode", 2},
	{"dijkstra", 8}, {"typeset", 8}, {"bitcount", 8}, {"bitcount", 2},
	{"typeset", 4}, {"pgp.encode", 4}, {"typeset", 2}, {"ghostscript", 2},
	{"basicmath", 2}, {"pgp.encode", 2}, {"pgp.encode", 8},
	{"basicmath", 1}, {"bitcount", 1}, {"dijkstra", 1}, {"pgp.encode", 1},
	{"pgp.decode", 1}, {"tiff2bw", 1}, {"typeset", 1}, {"ghostscript", 1},
	{"gsm.decode", 1},
}

// hitKeys are the estimate-hit keys in popularity order.
func (w workload) hitKeys(fp string) []*entry {
	keys := make([]*entry, len(hitRanking))
	for i, j := range hitRanking {
		keys[i] = estimateEntry(fp, j.bench, j.scenarios, core.AnalyzeOpts{})
	}
	return keys
}

// warmup returns the untimed requests sent before the timed phase. They use
// keys outside the stream (except estimate-hit, whose warm-up primes exactly
// the stream's keys) and leave the process the way a long-lived daemon is:
// control-stimulus and stage-DTS memos filled, and for oppoint-grid the four
// per-condition frameworks built.
func (w workload) warmup(fp string) []*entry {
	switch {
	case w.hit:
		return w.hitKeys(fp)
	case w.oppoint:
		// One more scenario than the stream's largest keeps the key apart.
		return []*entry{oppointEntry("typeset", w.scenarios[len(w.scenarios)-1]+1, 4e-3)}
	}
	var out []*entry
	top := w.scenarios[len(w.scenarios)-1]
	for _, p := range w.programs {
		// min_scenarios=1 changes the key but not a fault-free result.
		out = append(out, estimateEntry(fp, p, top, core.AnalyzeOpts{MinScenarios: 1}))
	}
	return out
}

// checkSample draws the stream positions whose results the output check
// recomputes in-process: distinct keys from the first checkWindow positions,
// returned in position order.
func (w workload) checkSample(stream []*entry, seed uint64) []int {
	window := w.checkWindow
	if window > len(stream) {
		window = len(stream)
	}
	rng := newRNG(seed, 2)
	seen := make(map[string]bool)
	var out []int
	for _, i := range rng.Perm(window) {
		if len(out) == w.sample {
			break
		}
		if seen[stream[i].key] {
			continue
		}
		seen[stream[i].key] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
