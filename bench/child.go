package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/mibench"
	"tsperr/internal/modelcache"
	"tsperr/internal/server"
)

// Server shape, mirroring cmd/tsperrd's defaults.
const (
	serverWorkers = 2
	serverCache   = 128
)

// Post-pass bounds: encode and quantile timings replay at most maxPostPass
// distinct responses and stop early once postPassBudget is spent (but not
// before minPostPass), since one low-count encode takes most of a second.
const (
	maxPostPass    = 64
	minPostPass    = 3
	postPassBudget = 3 * time.Second
	// hashReps is how many times each request's canonical key is hashed
	// when timing Request.Key.
	hashReps = 16
)

// Request-ID ranges of the traced run: timed requests are their stream
// positions; warm-up and post-pass replay requests sit in ranges of their
// own.
const (
	warmBase   = 1 << 20
	replayBase = 2 << 20
)

// runConfig is one in-process workload run.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	// check recomputes the sampled keys in-process; a run's children share
	// one seed and so one sample, and only one of them needs to check it.
	check bool
	// start is when set-up began (the child's process start).
	start time.Time
	// maxRequests caps the timed phase (0 = only the time limit).
	maxRequests int
	// spansPath, when set, receives the traced run's spans as JSON.
	spansPath string
}

// metric is one named value in a run's output.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childReport is what one workload run hands back to the parent.
type childReport struct {
	SetupS   float64  `json:"setup_s"`
	Sent     int      `json:"sent"`
	OK       int      `json:"ok"`
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	Digest   string   `json:"results_digest"`
	// WallS and Latencies (ms, successful requests) are the timed phase's
	// raw timings, pooled by the parent across children.
	WallS     float64   `json:"wall_s"`
	Latencies []float64 `json:"latencies_ms"`
	Metrics   []metric  `json:"metrics"`
}

// addLoad adds the load metrics of the report's timed phase (or of several
// pooled).
func (r *childReport) addLoad() {
	r.add("throughput_rps", float64(r.OK)/r.WallS, "req/s")
	r.add("latency_p50_ms", percentile(r.Latencies, 0.50), "ms")
	r.add("latency_p90_ms", percentile(r.Latencies, 0.90), "ms")
	r.add("latency_p99_ms", percentile(r.Latencies, 0.99), "ms")
	r.add("samples", float64(len(r.Latencies)), "count")
}

func (r *childReport) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// value returns a named metric, or NaN.
func (r *childReport) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// problem records one failed output check.
func (r *childReport) problem(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// result is one request as the client saw it.
type result struct {
	e      *entry
	idx    int
	start  time.Time
	end    time.Time
	status int
	body   []byte
	err    error
}

func (r *result) latency() time.Duration { return r.end.Sub(r.start) }

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

// do sends one request; the latency runs from the send to the last body byte.
func (c *client) do(ctx context.Context, e *entry) result {
	r := result{e: e}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+e.path, bytes.NewReader(e.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.end = time.Now()
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	r.end = time.Now()
	resp.Body.Close()
	r.status = resp.StatusCode
	return r
}

// run executes one workload in this process: a fresh daemon set-up, the
// untimed warm-up, the timed closed loop, and the output checks.
func run(ctx context.Context, rc runConfig) (*childReport, error) {
	w := rc.w
	dir, err := os.MkdirTemp("", "tsperr-bench-modelcache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The model cache is on, as in tsperrd, but empty: set-up is the
	// daemon's first start.
	harness.SetModelCache(true, dir)
	fp := modelcache.Key(harness.SharedOptions(), cell.Fingerprint())

	var tr *tracer
	cfg := server.Config{
		Analyze:     harness.AnalyzeWithOpts,
		AnalyzeAt:   harness.AnalyzeAtPoint,
		Fingerprint: fp,
		Workers:     serverWorkers,
		CacheSize:   serverCache,
		Limits: server.Limits{
			DefaultScenarios: harness.DefaultScenarios,
			Lookup: func(name string) error {
				_, err := mibench.ByName(name)
				return err
			},
		},
	}
	if rc.trace {
		tr = newTracer(fp)
		cfg.Analyze, cfg.AnalyzeAt = tr.analyze, tr.analyzeAt
	}
	srv, err := server.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stream := w.stream(fp, rc.seed)
	if rc.maxRequests > 0 && rc.maxRequests < len(stream) {
		stream = stream[:rc.maxRequests]
	}
	warm := w.warmup(fp)
	if tr != nil {
		for i, e := range warm {
			tr.register(e.key, warmBase+i)
		}
		for i, e := range stream {
			tr.register(e.key, i)
		}
	}
	cs := make([]*client, w.clients)
	for i := range cs {
		cs[i] = newClient(ts.URL)
		defer cs[i].tr.CloseIdleConnections()
	}

	rep := &childReport{}
	t0 := time.Now()
	fw, err := harness.SharedFramework()
	if err != nil {
		return nil, fmt.Errorf("model warm-up: %w", err)
	}
	setupMS := ms(time.Since(t0))
	srv.SetReady()

	warmStart := time.Now()
	warmRes := make([]result, len(warm))
	for i, e := range warm {
		warmRes[i] = traced(ctx, tr, cs[0], e, warmBase+i)
		if warmRes[i].err != nil || warmRes[i].status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %s: status %d: %v %s", e.body, warmRes[i].status, warmRes[i].err, warmRes[i].body)
		}
	}
	warmMS := ms(time.Since(warmStart))
	rep.SetupS = time.Since(rc.start).Seconds()

	// Serving memory is measured from a settled heap: set-up garbage is
	// collected and returned to the OS before the peak-RSS mark is reset.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before, err := scrape(ctx, ts.URL)
	if err != nil {
		return nil, err
	}
	alloc0 := heapAllocs()
	res, wall := closedLoop(ctx, tr, cs, stream, time.Duration(rc.seconds*float64(time.Second)))
	alloc1 := heapAllocs()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", rss, "MB")
	after, err := scrape(ctx, ts.URL)
	if err != nil {
		return nil, err
	}

	// Timed-phase metrics.
	rep.Sent = len(res)
	rep.WallS = wall.Seconds()
	for i := range res {
		if res[i].err == nil && res[i].status == http.StatusOK {
			rep.OK++
			rep.Latencies = append(rep.Latencies, ms(res[i].latency()))
		}
	}
	rep.addLoad()
	n := float64(max(rep.OK, 1))
	rep.add("process.alloc_kb_per_req", (alloc1.bytes-alloc0.bytes)/1024/n, "KB")
	rep.add("process.mallocs_per_req", (alloc1.objects-alloc0.objects)/n, "count")
	delta := func(name string) float64 { return after[name] - before[name] }
	sent := float64(max(rep.Sent, 1))
	rep.add("server.cache_hit_share", delta("tsperrd_cache_hits_total")/sent, "ratio")
	rep.add("server.dedup_join_share", delta("tsperrd_dedup_joins_total")/sent, "ratio")
	rep.add("server.computations_per_req", delta("tsperrd_computations_total")/sent, "count")
	rep.add("server.queue_rejects", delta("tsperrd_queue_rejects_total"), "count")

	// Output checks. Replies that share one body (see closedLoop) are
	// decoded and checked once.
	resps := make([]*response, len(res))
	parsed := make(map[*byte]*response)
	for i := range res {
		if len(res[i].body) > 0 {
			if p, ok := parsed[&res[i].body[0]]; ok {
				cp := *p
				cp.result = &res[i]
				resps[i] = &cp
			} else {
				resps[i] = w.parse(&res[i])
				parsed[&res[i].body[0]] = resps[i]
			}
		} else {
			resps[i] = w.parse(&res[i])
		}
		if resps[i].problem != "" {
			rep.problem("request %d %s: %s", res[i].idx, res[i].e.body, resps[i].problem)
		}
	}
	warmResps := make([]*response, len(warm))
	for i := range warmRes {
		warmResps[i] = w.parse(&warmRes[i])
		if warmResps[i].problem != "" {
			rep.problem("warm-up %s: %s", warmRes[i].e.body, warmResps[i].problem)
		}
	}
	hits, computed := int(delta("tsperrd_cache_hits_total")), int(delta("tsperrd_computations_total"))
	switch {
	case w.hit:
		if hits != rep.Sent {
			rep.problem("cache hits grew by %d over %d requests, want every request a hit", hits, rep.Sent)
		}
	case !w.oppoint:
		if hits != 0 {
			rep.problem("cache hits grew by %d, want none on distinct keys", hits)
		}
		if computed != rep.Sent {
			rep.problem("computations grew by %d over %d requests, want one each", computed, rep.Sent)
		}
	}
	if w.oppoint {
		var subs, subHits float64
		for _, r := range resps {
			if r.opp != nil {
				subs += float64(r.opp.Subrequests)
				subHits += float64(r.opp.CacheHits)
			}
		}
		rep.add("server.oppoint_subrequests_per_search", subs/n, "count")
		rep.add("server.oppoint_subrequest_hit_share", subHits/math.Max(subs, 1), "ratio")
		rep.add("harness.condition_build_ms", warmMS, "ms")
	}
	sample := w.checkSample(stream, rc.seed)
	digestSet := append([]*response(nil), warmResps...)
	for _, pos := range sample {
		if pos >= len(resps) {
			rep.problem("stream position %d was not served; the timed phase is too short for the output check", pos)
			continue
		}
		r := resps[pos]
		digestSet = append(digestSet, r)
		if r.problem != "" || !rc.check {
			continue
		}
		if msg := w.recompute(ctx, r); msg != "" {
			rep.problem("key %s: %s", r.e.body, msg)
		}
	}
	rep.Digest = digest(digestSet)

	if tr != nil {
		rep.add("harness.setup_ms", setupMS, "ms")
		if w.oppoint {
			// The timed path never reaches the plain Analyze hook, so the
			// stage spans come from replaying the checked searches' programs
			// through the decomposed pipeline, which is checked too.
			for k, pos := range sample {
				if pos < len(stream) {
					e := stream[pos]
					if msg := replay(ctx, tr, e, replayBase+k); msg != "" {
						rep.problem("replay %s/%d: %s", e.bench, e.scenarios, msg)
					}
				}
			}
		}
		if err := layerMetrics(rep, w, tr, stream, resps, warmResps); err != nil {
			return nil, err
		}
		if w.name == "estimate-miss" {
			surrogateCounterfactual(rep, fw, fp, warmResps, resps)
		}
		if rc.spansPath != "" {
			if err := tr.write(rc.spansPath); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// traced sends request req, recorded as a round-trip span when tracing.
func traced(ctx context.Context, tr *tracer, c *client, e *entry, req int) result {
	var id int
	if tr != nil {
		id = tr.begin(spanRoundTrip, -1, req)
	}
	r := c.do(ctx, e)
	if tr != nil {
		tr.end(id, 0)
	}
	r.idx = req
	return r
}

// closedLoop runs the timed phase: each client sends the next stream entry
// as soon as its previous reply has arrived, until d has passed or the
// stream is used up. It returns the results in stream order and the wall
// time, which runs until the last reply.
//
// A client keeps a reply identical to an earlier reply for the same key as
// a reference to the earlier body, so on estimate-hit the benchmark's own
// memory does not grow with the request count and peak_rss_mb measures the
// daemon.
func closedLoop(ctx context.Context, tr *tracer, cs []*client, stream []*entry, d time.Duration) ([]result, time.Duration) {
	var next atomic.Int64
	per := make([][]result, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			seen := make(map[string][]byte)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				r := traced(ctx, tr, c, stream[i], i)
				if r.err == nil && r.status == http.StatusOK {
					if prev, ok := seen[r.e.key]; !ok {
						seen[r.e.key] = r.body
					} else if bytes.Equal(prev, r.body) {
						r.body = prev
					}
				}
				per[ci] = append(per[ci], r)
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all, wall
}

// response is one decoded reply with the outcome of its own checks.
type response struct {
	*result
	problem string
	// Estimate workloads: the report and its estimate, both compacted.
	report   []byte
	estimate []byte
	// oppoint-grid: the decoded search result.
	opp *server.OppointResponse
}

// estimateFields are the estimate's wire fields the checks read.
type estimateFields struct {
	LambdaMean    float64 `json:"lambda_mean"`
	TotalInsts    float64 `json:"total_instructions"`
	MeanErrorRate float64 `json:"mean_error_rate"`
	P50           float64 `json:"p50_error_rate"`
	P95           float64 `json:"p95_error_rate"`
	P99           float64 `json:"p99_error_rate"`
}

// parse decodes one reply and runs the per-response checks.
func (w workload) parse(r *result) *response {
	out := &response{result: r}
	switch {
	case r.err != nil:
		out.problem = r.err.Error()
		return out
	case r.status != http.StatusOK:
		out.problem = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		return out
	}
	if w.oppoint {
		var o server.OppointResponse
		if err := json.Unmarshal(r.body, &o); err != nil {
			out.problem = "undecodable body: " + err.Error()
			return out
		}
		out.opp = &o
		out.problem = checkOppoint(&o, r.e.target)
		return out
	}
	var body struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		out.problem = "undecodable body: " + err.Error()
		return out
	}
	var rep struct {
		Estimate json.RawMessage `json:"estimate"`
	}
	if err := json.Unmarshal(body.Report, &rep); err != nil {
		out.problem = "undecodable report: " + err.Error()
		return out
	}
	var est estimateFields
	if err := json.Unmarshal(rep.Estimate, &est); err != nil {
		out.problem = "undecodable estimate: " + err.Error()
		return out
	}
	out.report = compact(body.Report)
	out.estimate = compact(rep.Estimate)
	switch {
	case body.Key != r.e.key:
		out.problem = fmt.Sprintf("key %s, want %s", body.Key, r.e.key)
	case w.hit && !body.Cached && r.idx < warmBase:
		out.problem = "served without the cache on the cache-hit workload"
	case !w.hit && body.Cached:
		out.problem = "served from the cache on a distinct-key workload"
	case !(0 <= est.P50 && est.P50 <= est.P95 && est.P95 <= est.P99):
		out.problem = fmt.Sprintf("quantiles out of order: p50 %g p95 %g p99 %g", est.P50, est.P95, est.P99)
	case math.Float64bits(est.MeanErrorRate) != math.Float64bits(est.LambdaMean/est.TotalInsts):
		out.problem = fmt.Sprintf("mean_error_rate %g != lambda_mean/total_instructions %g", est.MeanErrorRate, est.LambdaMean/est.TotalInsts)
	}
	return out
}

// checkOppoint checks a search result: one point per grid condition, every
// feasible point within the target, and the frontier fastest first.
func checkOppoint(o *server.OppointResponse, target float64) string {
	if len(o.Points) != len(oppointVoltages)*len(oppointTemps) {
		return fmt.Sprintf("%d points, want %d", len(o.Points), len(oppointVoltages)*len(oppointTemps))
	}
	for _, p := range o.Points {
		if p.Feasible && !(p.ErrorRate <= target) {
			return fmt.Sprintf("feasible point at %gV/%gC has error rate %g above target %g", p.VoltageV, p.TempC, p.ErrorRate, target)
		}
	}
	for i := 1; i < len(o.Frontier); i++ {
		if o.Frontier[i].PeriodPs < o.Frontier[i-1].PeriodPs {
			return "frontier not sorted fastest first"
		}
	}
	return ""
}

func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// recompute checks a served result against the same key computed
// in-process: the estimate byte for byte, or for a search each point's
// error rate bit for bit. Timings (training_sec, simulation_sec) are not
// compared.
func (w workload) recompute(ctx context.Context, r *response) string {
	e := r.e
	if w.oppoint {
		for _, p := range r.opp.Points {
			cond := cell.OperatingCondition{VoltageV: p.VoltageV, TempC: p.TempC}
			rep, err := harness.AnalyzeAtPoint(ctx, e.bench, e.scenarios, core.AnalyzeOpts{}, cond, p.Ratio)
			if err != nil {
				return err.Error()
			}
			if got := rep.Estimate.MeanErrorRate(); math.Float64bits(got) != math.Float64bits(p.ErrorRate) {
				return fmt.Sprintf("point %s ratio %g served error rate %g, in-process %g", cond, p.Ratio, p.ErrorRate, got)
			}
		}
		return ""
	}
	rep, err := harness.AnalyzeWithOpts(ctx, e.bench, e.scenarios, e.opts)
	if err != nil {
		return err.Error()
	}
	want, err := json.Marshal(rep.Estimate)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(want, r.estimate) {
		return fmt.Sprintf("served estimate %s differs from in-process %s", r.estimate, want)
	}
	return ""
}

// replay runs one program through the traced pipeline outside any request
// and checks its estimate against harness.AnalyzeWithOpts.
func replay(ctx context.Context, tr *tracer, e *entry, req int) string {
	got, err := tr.pipeline(ctx, e.bench, e.scenarios, core.AnalyzeOpts{}, -1, req)
	if err != nil {
		return err.Error()
	}
	return sameEstimate(ctx, got, e.bench, e.scenarios)
}

// sameEstimate compares a decomposed report with harness.AnalyzeWithOpts.
func sameEstimate(ctx context.Context, got *core.Report, bench string, scenarios int) string {
	want, err := harness.AnalyzeWithOpts(ctx, bench, scenarios, core.AnalyzeOpts{})
	if err != nil {
		return err.Error()
	}
	g, err1 := json.Marshal(got.Estimate)
	h, err2 := json.Marshal(want.Estimate)
	if err := errors.Join(err1, err2); err != nil {
		return err.Error()
	}
	switch {
	case !bytes.Equal(g, h):
		return fmt.Sprintf("decomposed estimate %s differs from %s", g, h)
	case got.Instructions != want.Instructions || got.BasicBlocks != want.BasicBlocks:
		return fmt.Sprintf("decomposed report has %d instructions/%d blocks, want %d/%d",
			got.Instructions, got.BasicBlocks, want.Instructions, want.BasicBlocks)
	}
	return ""
}

// digest hashes the canonical result of every distinct key in rs, in key
// order: the estimate object, or a search's points and frontier.
func digest(rs []*response) string {
	canon := make(map[string][]byte)
	for _, r := range rs {
		if r.problem != "" {
			continue
		}
		b := r.estimate
		if r.opp != nil {
			var err error
			b, err = json.Marshal(struct {
				Points   []server.OppointPoint `json:"points"`
				Frontier []server.OppointPoint `json:"frontier"`
			}{r.opp.Points, r.opp.Frontier})
			if err != nil {
				continue
			}
		}
		canon[r.e.key] = b
	}
	keys := make([]string, 0, len(canon))
	for k := range canon {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, canon[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrape reads the daemon's /metrics counters.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

type allocs struct{ bytes, objects float64 }

// heapAllocs reads the process's cumulative heap allocation counters.
func heapAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocs{bytes: float64(s[0].Value.Uint64()), objects: float64(s[1].Value.Uint64())}
}

// resetPeakRSS resets the process's peak resident set size to its current
// one (Linux, /proc/self/clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) since start
// or the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
