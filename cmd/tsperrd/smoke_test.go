package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/cluster"
	"tsperr/internal/harness"
	"tsperr/internal/modelcache"
	"tsperr/internal/server"
)

// The end-to-end smokes drive tsperrd daemons over HTTP. Each daemon is this
// test binary re-executed through TestMain's TSPERR_SMOKE_MAIN branch, on a
// port the kernel chooses and the daemon names in its "listening on" log
// line. Under -race the daemons are race-built too. The smokes run in
// parallel, each with its own model-cache directory, and are skipped under
// -short; `make smoke` runs only them.

// client bounds every smoke request, so a wedged daemon fails the test
// instead of hanging it.
var client = &http.Client{Timeout: 5 * time.Minute}

// daemon is one re-executed tsperrd.
type daemon struct {
	t      *testing.T
	name   string
	cmd    *exec.Cmd
	addr   string // host:port from the "listening on" line
	mu     sync.Mutex
	log    strings.Builder // stderr so far; guarded by mu
	exited chan struct{}   // closed once the process has exited
	err    error           // the exit status, set before exited closes
}

// startDaemon starts tsperrd -listen 127.0.0.1:0 with args and waits for
// its "listening on" line. At cleanup the daemon is SIGKILLed if still
// running, and a failed test logs its stderr.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, name: name, exited: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), "TSPERR_SMOKE_MAIN=1")
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(sc.Text(), "tsperrd: listening on "); ok {
				addr <- a
			}
		}
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.exited
		if t.Failed() {
			t.Logf("--- %s log ---\n%s", name, d.logText())
		}
	})
	select {
	case d.addr = <-addr:
	case <-d.exited:
		t.Fatalf("%s exited before listening: %v", name, d.err)
	case <-time.After(time.Minute):
		t.Fatalf("%s logged no listen address", name)
	}
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// fetch GETs path, or POSTs body to it when body is not empty. It is safe
// to call from any goroutine.
func (d *daemon) fetch(path, body string) (int, []byte, error) {
	url := "http://" + d.addr + path
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post POSTs body to path and decodes the 200 response into v.
func (d *daemon) post(path, body string, v any) []byte {
	d.t.Helper()
	code, b, err := d.fetch(path, body)
	if err != nil || code != http.StatusOK {
		d.t.Fatalf("%s: POST %s %s: status %d, %v: %s", d.name, path, body, code, err, b)
	}
	if err := json.Unmarshal(b, v); err != nil {
		d.t.Fatalf("%s: POST %s: %v: %s", d.name, path, err, b)
	}
	return b
}

// waitOK waits for GET path to answer 200.
func (d *daemon) waitOK(path string) {
	d.t.Helper()
	poll(d.t, d.name+" "+path, func() bool {
		code, _, err := d.fetch(path, "")
		return err == nil && code == http.StatusOK
	})
}

// metric returns the value of one /metrics series, labels included.
func (d *daemon) metric(series string) int {
	d.t.Helper()
	_, b, err := d.fetch("/metrics", "")
	if err != nil {
		d.t.Fatalf("%s: scrape /metrics: %v", d.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				d.t.Fatalf("%s: %s", d.name, line)
			}
			return int(f)
		}
	}
	d.t.Fatalf("%s: /metrics has no series %s", d.name, series)
	return 0
}

// drain sends SIGTERM and requires a clean exit: status 0 after the
// "drained cleanly" log line.
func (d *daemon) drain() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.t.Fatalf("%s did not exit after SIGTERM", d.name)
	}
	if d.err != nil || !strings.Contains(d.logText(), "drained cleanly") {
		d.t.Fatalf("%s after SIGTERM: exit error %v; want exit 0 after a \"drained cleanly\" line", d.name, d.err)
	}
}

// poll calls ok every 100 ms until it reports true, failing after two
// minutes (race-built daemons warm slowly).
func poll(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Minute); !ok(); time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// smoke skips a smoke under -short and runs it in parallel with the others.
func smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tsperrd daemons")
	}
	t.Parallel()
}

// estimate is the part of a POST /v1/estimate response the smokes read.
type estimate struct {
	Key    string `json:"key"`
	Tier   string `json:"tier"`
	Report struct {
		Name string          `json:"name"`
		MC   json.RawMessage `json:"montecarlo"`
	} `json:"report"`
}

// TestSmokeDaemon: one estimate, then a burst of 16 identical requests that
// share one computation or hit the cache, so 17 requests compute twice.
func TestSmokeDaemon(t *testing.T) {
	smoke(t)
	d := startDaemon(t, "tsperrd", "-model-cache-dir", t.TempDir())
	d.waitOK("/healthz")
	var est estimate
	d.post("/v1/estimate", `{"benchmark":"typeset","scenarios":2}`, &est)
	if est.Report.Name != "typeset" {
		t.Fatalf("estimate answered %q, want typeset", est.Report.Name)
	}
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, b, err := d.fetch("/v1/estimate", `{"benchmark":"dijkstra","scenarios":2}`); err != nil || code != http.StatusOK {
				t.Errorf("burst request: status %d, %v: %s", code, err, b)
			}
		}()
	}
	wg.Wait()
	if n := d.metric("tsperrd_computations_total"); n != 2 {
		t.Errorf("%d computations, want 2 (typeset + the dijkstra burst)", n)
	}
	d.drain()
}

// TestSmokeOppoint: a 2x2 voltage/temperature search returns a frontier and
// the 1.05 V points, and a warm re-run answers every bisection probe from
// the cache.
func TestSmokeOppoint(t *testing.T) {
	smoke(t)
	d := startDaemon(t, "tsperrd", "-model-cache-dir", t.TempDir())
	d.waitOK("/healthz")
	const req = `{"benchmark":"typeset","scenarios":2,"target_error_rate":0.02,
		"voltages":[1.1,1.05],"temps_c":[25,85],"min_ratio":1.0,"max_ratio":1.2,"steps":3}`
	var cold, warm server.OppointResponse
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(d.post("/v1/oppoint", req, &cold), &fields); err != nil || fields["frontier"] == nil {
		t.Fatalf("cold search response has no frontier (%v)", err)
	}
	if !slices.ContainsFunc(cold.Points, func(p server.OppointPoint) bool { return p.VoltageV == 1.05 }) {
		t.Fatalf("no point at 1.05 V: %+v", cold.Points)
	}
	subs, hits := d.metric("tsperrd_oppoint_subrequests_total"), d.metric("tsperrd_oppoint_subrequest_cache_hits_total")
	if subs == 0 {
		t.Fatal("no oppoint sub-requests counted")
	}

	d.post("/v1/oppoint", req, &warm)
	if len(warm.Points) != len(cold.Points) || len(warm.Frontier) != len(cold.Frontier) {
		t.Errorf("warm re-run changed the point set: %d+%d points, cold %d+%d",
			len(warm.Points), len(warm.Frontier), len(cold.Points), len(cold.Frontier))
	}
	newSubs := d.metric("tsperrd_oppoint_subrequests_total") - subs
	newHits := d.metric("tsperrd_oppoint_subrequest_cache_hits_total") - hits
	if newSubs == 0 || newHits != newSubs {
		t.Errorf("warm re-run: %d cache hits for %d sub-requests, want all of > 0", newHits, newSubs)
	}
	d.drain()
}

// TestSmokeSurrogate: before any model, every request escalates as
// untrained and trains the tier; training lands in the background; forced-
// exact Monte Carlo requests then yield shadow residuals; and a novel
// request declares its tier.
func TestSmokeSurrogate(t *testing.T) {
	smoke(t)
	d := startDaemon(t, "tsperrd", "-model-cache-dir", t.TempDir(),
		"-surrogate", "serve", "-surrogate-min-train", "4", "-surrogate-retrain", "4")
	d.waitOK("/healthz")
	for _, b := range []string{"typeset", "dijkstra", "patricia", "stringsearch"} {
		var est estimate
		d.post("/v1/estimate", `{"benchmark":"`+b+`","scenarios":2}`, &est)
		if est.Tier != "exact" {
			t.Errorf("%s before any model: tier %q, want exact", b, est.Tier)
		}
	}
	untrained := d.metric(`tsperrd_surrogate_escalations_total{reason="untrained"}`)
	if obs := d.metric("tsperrd_surrogate_observations_total"); untrained != 4 || obs != 4 {
		t.Fatalf("%d untrained escalations and %d observations, want 4 and 4", untrained, obs)
	}
	poll(t, "the first surrogate training", func() bool { return d.metric("tsperrd_surrogate_trainings_total") >= 1 })
	if v := d.metric("tsperrd_surrogate_model_version"); v < 1 {
		t.Fatalf("model version %d after training", v)
	}

	for _, b := range []string{"typeset", "dijkstra", "patricia"} {
		d.post("/v1/estimate", `{"benchmark":"`+b+`","scenarios":2,"mc_trials":50}`, &estimate{})
	}
	if n := d.metric("tsperrd_surrogate_residual_log10_count"); n < 3 {
		t.Errorf("%d shadow residuals, want at least 3", n)
	}
	if obs := d.metric("tsperrd_surrogate_observations_total"); obs != 7 {
		t.Errorf("%d observations after the Monte Carlo requests, want 7", obs)
	}

	if g := d.metric("tsperrd_surrogate_serving"); g != 1 {
		t.Errorf("serving gauge %d, want 1", g)
	}
	var est estimate
	d.post("/v1/estimate", `{"benchmark":"dijkstra","scenarios":4}`, &est)
	if est.Tier == "" {
		t.Error("novel request's response has no tier")
	}
	hits, uncertain := d.metric("tsperrd_surrogate_hits_total"), d.metric(`tsperrd_surrogate_escalations_total{reason="uncertain"}`)
	if hits+uncertain+untrained < 5 {
		t.Errorf("gate decisions unaccounted for: %d hits, %d uncertain, %d untrained", hits, uncertain, untrained)
	}
	d.drain()
}

// TestSmokeCluster: a -peers coordinator routes requests by key over two
// plain daemons. A 5000-trial Monte Carlo request owned by daemon B is sent
// through the coordinator, and B is SIGKILLed while computing it: the
// request still succeeds, through the coordinator's local fallback, with
// the montecarlo section daemon A computes alone, byte for byte.
func TestSmokeCluster(t *testing.T) {
	smoke(t)
	// Daemon A trains the model and fills the cache the others restore from.
	cache := t.TempDir()
	a := startDaemon(t, "daemon A", "-model-cache-dir", cache)
	a.waitOK("/healthz")
	b := startDaemon(t, "daemon B", "-model-cache-dir", cache)
	peers := []string{"http://" + a.addr, "http://" + b.addr}
	c := startDaemon(t, "coordinator", "-peers", strings.Join(peers, ","), "-model-cache-dir", cache)
	b.waitOK("/healthz")
	c.waitOK("/readyz")
	poll(t, "two healthy peers", func() bool {
		var r struct {
			HealthyPeers int `json:"healthy_peers"`
		}
		_, body, err := c.fetch("/readyz", "")
		return err == nil && json.Unmarshal(body, &r) == nil && r.HealthyPeers == 2
	})

	// The coordinator's ring is a function of its peer list, so a test
	// coordinator over the same peers names each key's owner. Pick a
	// scenario count whose request B owns.
	eng, err := harness.New(cell.OperatingCondition{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := modelcache.Key(eng.Options(), cell.Fingerprint())
	ring := cluster.New(cluster.Config{Peers: peers})
	ring.ProbeOnce(context.Background())
	var req server.Request
	for n := 1; n <= 32 && req.Benchmark == ""; n++ {
		r := server.Request{Benchmark: "pgp.decode", Scenarios: n, MCTrials: 5000}
		if ring.Route(r.Key(fingerprint)) == peers[1] {
			req = r
		}
	}
	if req.Benchmark == "" {
		t.Fatal("daemon B owns no request of 1 to 32 scenarios")
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var ref estimate
	a.post("/v1/estimate", string(body), &ref)
	if ref.Key != req.Key(fingerprint) {
		t.Fatalf("daemon A keyed the request %s, the test %s", ref.Key, req.Key(fingerprint))
	}
	type reply struct {
		code int
		body []byte
		err  error
	}
	routed := make(chan reply, 1)
	go func() {
		code, b, err := c.fetch("/v1/estimate", string(body))
		routed <- reply{code, b, err}
	}()
	for b.metric("tsperrd_inflight_computations") == 0 {
		select {
		case r := <-routed:
			t.Fatalf("the routed request finished before daemon B was seen computing it: status %d, %v", r.code, r.err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	_ = b.cmd.Process.Kill()
	r := <-routed
	var got estimate
	if r.err != nil || r.code != http.StatusOK || json.Unmarshal(r.body, &got) != nil {
		t.Fatalf("routed request with its owner killed: status %d, %v: %s", r.code, r.err, r.body)
	}

	var refMC, gotMC bytes.Buffer
	if json.Compact(&refMC, ref.Report.MC) != nil || json.Compact(&gotMC, got.Report.MC) != nil {
		t.Fatalf("a response carries no montecarlo section: %s", got.Report.MC)
	}
	if refMC.String() != gotMC.String() {
		t.Fatalf("routed montecarlo section diverges from the single-node run:\n%s\n%s", gotMC.String(), refMC.String())
	}
	var mc struct{ Trials int }
	if err := json.Unmarshal(gotMC.Bytes(), &mc); err != nil || mc.Trials != 5000 {
		t.Fatalf("validation incomplete (%v): %s", err, gotMC.String())
	}
	if n := c.metric("tsperrd_cluster_proxy_fallbacks_total"); n == 0 {
		t.Error("no proxy fallback counted after daemon B died mid-request")
	}
	c.drain()
	a.drain()
}
