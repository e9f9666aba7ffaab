package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"tsperr/internal/core"
	"tsperr/internal/harness"
	"tsperr/internal/server"
	"tsperr/internal/surrogate"
)

// reqSpans groups one request's spans.
type reqSpans struct {
	roundTrip *span
	analyze   []interval
	stages    map[string][]interval
	insts     int64
	simNS     int64
}

func (g *reqSpans) stageCover() []interval {
	var all []interval
	for _, name := range stageSpans {
		all = append(all, g.stages[name]...)
	}
	return all
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans and from post-pass timings of the layers the spans cannot see
// (hashing, response encoding, quantiles).
func layerMetrics(rep *childReport, w workload, tr *tracer, stream []*entry, resps, warm []*response) error {
	byReq := make(map[int]*reqSpans)
	for _, s := range tr.snapshot() {
		if s.End < 0 {
			return fmt.Errorf("span %s of request %d never ended", s.Name, s.Req)
		}
		g := byReq[s.Req]
		if g == nil {
			g = &reqSpans{stages: make(map[string][]interval)}
			byReq[s.Req] = g
		}
		iv := interval{s.Start, s.End}
		switch s.Name {
		case spanRoundTrip:
			s := s
			g.roundTrip = &s
		case spanAnalyze, spanAnalyzeAt:
			g.analyze = append(g.analyze, iv)
		default:
			g.stages[s.Name] = append(g.stages[s.Name], iv)
			if s.Name == spanSim {
				g.insts += s.Count
				g.simNS += s.End - s.Start
			}
		}
	}
	// group collects the requests in [lo, hi) that have a span of the wanted
	// kind, in request order.
	group := func(lo, hi int, has func(*reqSpans) bool) []int {
		var out []int
		for req, g := range byReq {
			if req >= lo && req < hi && has(g) {
				out = append(out, req)
			}
		}
		sort.Ints(out)
		return out
	}
	// first returns the first non-empty group among the timed requests,
	// the warm-up and the post-pass replay: estimate-hit never computes in
	// its timed phase, and oppoint-grid reaches the stages only in replay.
	first := func(has func(*reqSpans) bool) []int {
		for _, r := range [][2]int{{0, warmBase}, {warmBase, replayBase}, {replayBase, math.MaxInt}} {
			if g := group(r[0], r[1], has); len(g) > 0 {
				return g
			}
		}
		return nil
	}
	analyzed := func(g *reqSpans) bool { return g.roundTrip != nil && len(g.analyze) > 0 }
	staged := func(g *reqSpans) bool { return len(g.stages[spanBuild]) > 0 }

	var self []float64
	for _, req := range group(0, warmBase, func(g *reqSpans) bool { return g.roundTrip != nil }) {
		g := byReq[req]
		self = append(self, ms(time.Duration(g.roundTrip.End-g.roundTrip.Start)-coverage(g.analyze)))
	}
	rep.add("server.self_ms", median(self), "ms")

	pipe := first(analyzed)
	var wait []float64
	for _, req := range pipe {
		g := byReq[req]
		start := g.analyze[0].start
		for _, iv := range g.analyze {
			start = min(start, iv.start)
		}
		wait = append(wait, ms(time.Duration(start-g.roundTrip.Start)))
	}
	rep.add("server.queue_wait_ms", median(wait), "ms")

	rep.add("server.hash_us", hashMicros(tr.fp, stream[:min(len(stream), len(resps), 1000)]), "us")

	encode, quantiles := postPassEncode(w, tr, resps)
	rep.add("server.encode_ms", median(values(encode)), "ms")

	stages := first(staged)
	for _, st := range []struct{ span, metric string }{
		{spanBuild, "cfg.build_ms"},
		{spanSim, "cpu.sim_ms"},
	} {
		var v []float64
		for _, req := range stages {
			v = append(v, ms(coverage(byReq[req].stages[st.span])))
		}
		rep.add(st.metric, median(v), "ms")
	}
	var rate, insts []float64
	for _, req := range stages {
		g := byReq[req]
		rate = append(rate, float64(g.insts)/float64(g.simNS)*1e3)
		insts = append(insts, float64(g.insts))
	}
	rep.add("cpu.minst_per_s", median(rate), "Minst/s")
	rep.add("cpu.insts_per_req", median(insts), "count")
	for _, st := range []struct{ span, metric string }{
		{spanControl, "errormodel.control_ms"},
		{spanConditionals, "errormodel.conditionals_ms"},
		{spanMarginals, "errormodel.marginals_ms"},
		{spanEstimate, "core.estimate_ms"},
	} {
		var v []float64
		for _, req := range stages {
			v = append(v, ms(coverage(byReq[req].stages[st.span])))
		}
		rep.add(st.metric, median(v), "ms")
	}
	rep.add("core.quantiles_ms", median(quantiles), "ms")

	// The layer gap: the share of round-trip time no phase span or
	// post-pass encode accounts for, over the requests whose encode was
	// timed.
	keyOf := make(map[int]string)
	for i, e := range stream {
		keyOf[i] = e.key
	}
	for i, r := range warm {
		keyOf[warmBase+i] = r.e.key
	}
	var rtSum, gapSum float64
	for _, req := range pipe {
		g := byReq[req]
		enc, ok := encode[keyOf[req]]
		if !ok {
			continue
		}
		phases := g.stageCover()
		if len(phases) == 0 {
			phases = g.analyze
		}
		rt := ms(time.Duration(g.roundTrip.End - g.roundTrip.Start))
		rtSum += rt
		gapSum += rt - ms(coverage(phases)) - enc
	}
	rep.add("core.layer_gap_pct", 100*gapSum/rtSum, "%")

	if w.oppoint {
		var at []float64
		for _, req := range group(0, warmBase, analyzed) {
			for _, iv := range byReq[req].analyze {
				at = append(at, ms(time.Duration(iv.end-iv.start)))
			}
		}
		rep.add("harness.analyze_at_point_ms", median(at), "ms")
	}
	return nil
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// hashMicros times server.Request.Key, the canonical hash every request
// pays at admission, over the served part of the stream: the median
// per-call time in microseconds. Searches are hashed in the shape of their
// estimate sub-requests.
func hashMicros(fp string, served []*entry) float64 {
	var per []float64
	for _, e := range served {
		req := server.Request{Benchmark: e.bench, Scenarios: e.scenarios, Retries: e.opts.Retries,
			MinScenarios: e.opts.MinScenarios, FailFast: e.opts.FailFast}
		if e.path == pathOppoint {
			req.FreqRatio, req.VoltageV, req.TempC = 1.15, oppointVoltages[0], oppointTemps[1]
		}
		start := time.Now()
		for i := 0; i < hashReps; i++ {
			_ = req.Key(fp)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/hashReps/1e3)
	}
	return median(per)
}

// postPassEncode replays the response encoding of distinct served results:
// json.Marshal of the decoded report (or search response), keyed by result
// key, and Estimate.MarshalJSON alone on a freshly decoded estimate, whose
// quantile memo is therefore cold the way a miss's is.
func postPassEncode(w workload, tr *tracer, resps []*response) (encode map[string]float64, quantiles []float64) {
	encode = make(map[string]float64)
	start := time.Now()
	spent := func(n int) bool { return n >= maxPostPass || (n >= minPostPass && time.Since(start) > postPassBudget) }
	for _, r := range resps {
		if spent(len(encode)) {
			break
		}
		if r.problem != "" {
			continue
		}
		if _, ok := encode[r.e.key]; ok {
			continue
		}
		if r.opp != nil {
			t0 := time.Now()
			if _, err := json.Marshal(r.opp); err != nil {
				continue
			}
			encode[r.e.key] = ms(time.Since(t0))
			continue
		}
		var rep core.Report
		if err := json.Unmarshal(r.report, &rep); err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := json.Marshal(&rep); err != nil {
			continue
		}
		encode[r.e.key] = ms(time.Since(t0))
		if q, ok := timeQuantiles(r.estimate); ok {
			quantiles = append(quantiles, q)
		}
	}
	if w.oppoint {
		tr.mu.Lock()
		ests := append([]*core.Estimate(nil), tr.atEstimates...)
		tr.mu.Unlock()
		start = time.Now()
		for _, e := range ests {
			if spent(len(quantiles)) {
				break
			}
			b, err := json.Marshal(e)
			if err != nil {
				continue
			}
			if q, ok := timeQuantiles(b); ok {
				quantiles = append(quantiles, q)
			}
		}
	}
	return encode, quantiles
}

// timeQuantiles decodes an estimate and times its MarshalJSON, which
// recomputes the three quantile bisections over the Eq. (14) CDF.
func timeQuantiles(b []byte) (float64, bool) {
	var est core.Estimate
	if err := json.Unmarshal(b, &est); err != nil {
		return 0, false
	}
	t0 := time.Now()
	if _, err := est.MarshalJSON(); err != nil {
		return 0, false
	}
	return ms(time.Since(t0)), true
}

// surrogateCounterfactual measures what the surrogate fast tier would have
// saved on estimate-miss compared with cache-only serving: a tier trained
// on the warm-up and the first half of the exact results, asked to decide
// on the second half. Nothing is served from it.
func surrogateCounterfactual(rep *childReport, fw *core.Framework, fp string, warm, resps []*response) {
	tier, err := surrogate.New(surrogate.Config{Fingerprint: fp})
	if err != nil {
		rep.problem("surrogate tier: %v", err)
		return
	}
	a := harness.NewSurrogateAdapter(fw, tier)
	observe := func(r *response) {
		var report core.Report
		if r.problem == "" && json.Unmarshal(r.report, &report) == nil {
			a.Observe(r.e.bench, r.e.scenarios, &report)
		}
	}
	for _, r := range warm {
		observe(r)
	}
	half := len(resps) / 2
	for _, r := range resps[:half] {
		observe(r)
	}
	tier.Quiesce()
	if err := tier.Retrain(); err != nil {
		rep.problem("surrogate training: %v", err)
		return
	}
	var decide, lat []float64
	served := 0
	for _, r := range resps[half:] {
		t0 := time.Now()
		d := a.Decide(r.e.bench, r.e.scenarios, 0)
		decide = append(decide, float64(time.Since(t0).Nanoseconds())/1e3)
		if d.Serve {
			served++
		}
		lat = append(lat, ms(r.latency()))
	}
	share := float64(served) / math.Max(float64(len(decide)), 1)
	decideUS := median(decide)
	rep.add("surrogate.decide_us", decideUS, "us")
	rep.add("surrogate.serve_share", share, "ratio")
	rep.add("surrogate.saved_ms_per_req", share*(median(lat)-decideUS/1e3), "ms")
}
