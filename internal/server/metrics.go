package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"tsperr/internal/cluster"
)

// metrics holds the service counters, exported in Prometheus text format at
// GET /metrics. Everything is stdlib: plain atomics for counters and a
// fixed-bucket histogram for request latency. Counters only ever increase;
// gauges (queue depth, in-flight computations, cache size) are sampled live
// at render time by the server.
type metrics struct {
	estimateRequests atomic.Uint64
	jobRequests      atomic.Uint64
	batchRequests    atomic.Uint64
	batchGetRequests atomic.Uint64
	healthRequests   atomic.Uint64
	readyRequests    atomic.Uint64
	metricsRequests  atomic.Uint64
	chunkRequests    atomic.Uint64

	computations  atomic.Uint64
	dedupJoins    atomic.Uint64
	cacheHits     atomic.Uint64
	queueRejects  atomic.Uint64
	clientCancels atomic.Uint64
	badRequests   atomic.Uint64
	failures      atomic.Uint64
	panics        atomic.Uint64
	// fingerprintRejects counts cluster requests refused because the caller's
	// model fingerprint disagrees with this node's.
	fingerprintRejects atomic.Uint64

	batchesStarted  atomic.Uint64
	batchesFinished atomic.Uint64

	// Operating-point search counters (POST /v1/oppoint). Sub-requests go
	// through the same join machinery as /v1/estimate, so their cache hits
	// here are the proof that bisection probes dedup instead of recomputing.
	oppointRequests            atomic.Uint64
	oppointSearches            atomic.Uint64
	oppointSubrequests         atomic.Uint64
	oppointSubrequestCacheHits atomic.Uint64
	oppointInfeasible          atomic.Uint64

	// surrogateMetrics are the fast-tier counters and the shadow-residual
	// histogram (surrogate.go); rendered only when a surrogate is attached.
	surrogateMetrics

	// latency times an answered estimate from arrival to its last body
	// byte, so the response encode is included.
	latency histogram
	// batchLatency measures whole-suite wall time, admission to last entry.
	batchLatency histogram
}

// latencyBounds are the histogram bucket upper bounds in seconds. The low
// end resolves warm cache hits (microseconds – milliseconds); the high end
// covers cold full-framework computations.
var latencyBounds = [...]float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket cumulative latency histogram; the final
// implicit bucket is +Inf.
type histogram struct {
	buckets [len(latencyBounds) + 1]atomic.Uint64
	count   atomic.Uint64
	sumUS   atomic.Uint64 // sum in microseconds, so the atomic stays integral
}

// observe records one request duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(uint64(d.Microseconds()))
}

// gauges are the point-in-time values the server samples under its mu just
// before rendering.
type gauges struct {
	queueDepth   int
	inflight     int
	cacheEntries int
	jobsStored   int
	// batchesStored counts retained batches; batchesRunning those with
	// entries still pending or in flight.
	batchesStored  int
	batchesRunning int
	// mcChunksInflight is the process-wide count of Monte Carlo chunks
	// currently executing (montecarlo.InFlightChunks).
	mcChunksInflight int64
	ready            bool
	uptime           time.Duration
	// cluster is the coordinator snapshot (nil on single-node daemons):
	// per-peer health plus the fan-out counters.
	cluster *clusterGauges
	// surrogate is the fast-tier snapshot (nil when the surrogate is off).
	surrogate *surrogateGauges
}

// clusterGauges is the coordinator state sampled at render time.
type clusterGauges struct {
	peers  []cluster.PeerStatus
	stats  cluster.Stats
	quorum int
}

// render writes the Prometheus text exposition. Order is fixed (no map
// iteration), so scrapes diff cleanly.
func (m *metrics) render(w io.Writer, g gauges) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	fmt.Fprintf(w, "# HELP tsperrd_requests_total HTTP requests by endpoint.\n# TYPE tsperrd_requests_total counter\n")
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"estimate\"} %d\n", m.estimateRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"jobs\"} %d\n", m.jobRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"batch\"} %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"batches\"} %d\n", m.batchGetRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"healthz\"} %d\n", m.healthRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"readyz\"} %d\n", m.readyRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"metrics\"} %d\n", m.metricsRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"cluster_chunk\"} %d\n", m.chunkRequests.Load())
	fmt.Fprintf(w, "tsperrd_requests_total{endpoint=\"oppoint\"} %d\n", m.oppointRequests.Load())

	counter("tsperrd_computations_total", "Estimations actually executed (after dedup and cache).", m.computations.Load())
	counter("tsperrd_dedup_joins_total", "Requests that joined an identical in-flight computation.", m.dedupJoins.Load())
	counter("tsperrd_cache_hits_total", "Requests served from the LRU result cache.", m.cacheHits.Load())
	counter("tsperrd_queue_rejects_total", "Requests rejected because the compute queue was full or draining.", m.queueRejects.Load())
	counter("tsperrd_client_cancels_total", "Waiters that left before their computation finished.", m.clientCancels.Load())
	counter("tsperrd_bad_requests_total", "Requests rejected by validation.", m.badRequests.Load())
	counter("tsperrd_failures_total", "Computations that finished with an error.", m.failures.Load())
	counter("tsperrd_panics_total", "Worker panics recovered by the compute queue.", m.panics.Load())
	counter("tsperrd_batches_started_total", "Batch suites admitted.", m.batchesStarted.Load())
	counter("tsperrd_batches_finished_total", "Batch suites whose every entry reached a terminal state.", m.batchesFinished.Load())
	counter("tsperrd_fingerprint_rejects_total", "Cluster requests refused for a model fingerprint mismatch.", m.fingerprintRejects.Load())
	counter("tsperrd_oppoint_searches_total", "Per-condition bisection searches run by /v1/oppoint.", m.oppointSearches.Load())
	counter("tsperrd_oppoint_subrequests_total", "Estimate sub-requests issued by oppoint bisections.", m.oppointSubrequests.Load())
	counter("tsperrd_oppoint_subrequest_cache_hits_total", "Oppoint sub-requests served from the LRU result cache.", m.oppointSubrequestCacheHits.Load())
	counter("tsperrd_oppoint_infeasible_total", "Oppoint conditions infeasible even at the minimum ratio.", m.oppointInfeasible.Load())

	gauge("tsperrd_queue_depth", "Jobs pending or running on the compute queue.", float64(g.queueDepth))
	gauge("tsperrd_inflight_computations", "Deduplicated computations currently in flight.", float64(g.inflight))
	gauge("tsperrd_cache_entries", "Reports held by the LRU result cache.", float64(g.cacheEntries))
	gauge("tsperrd_jobs_stored", "Async jobs currently retained.", float64(g.jobsStored))
	gauge("tsperrd_batches_stored", "Batches currently retained.", float64(g.batchesStored))
	gauge("tsperrd_batches_running", "Batches with entries still in flight.", float64(g.batchesRunning))
	gauge("tsperrd_mc_chunks_inflight", "Monte Carlo chunks executing right now.", float64(g.mcChunksInflight))
	ready := 0.0
	if g.ready {
		ready = 1.0
	}
	gauge("tsperrd_ready", "1 once the shared framework is warm.", ready)
	gauge("tsperrd_uptime_seconds", "Seconds since the server started.", g.uptime.Seconds())

	if c := g.cluster; c != nil {
		counter("tsperrd_cluster_remote_chunks_total", "Monte Carlo chunks executed by peers.", c.stats.RemoteChunks)
		counter("tsperrd_cluster_local_chunks_total", "Monte Carlo chunks executed locally under cluster fan-out.", c.stats.LocalChunks)
		counter("tsperrd_cluster_stolen_chunks_total", "Chunks re-queued after a peer failed them mid-run.", c.stats.StolenChunks)
		counter("tsperrd_cluster_hedged_chunks_total", "Chunks hedge-re-dispatched after exceeding the hedge deadline.", c.stats.HedgedChunks)
		counter("tsperrd_cluster_proxied_estimates_total", "Estimate requests answered by the owning peer.", c.stats.ProxiedEstimates)
		counter("tsperrd_cluster_proxy_fallbacks_total", "Routed estimates that fell back to local execution.", c.stats.ProxyFallbacks)
		counter("tsperrd_cluster_fingerprint_mismatches_total", "Peer responses rejected for a model fingerprint mismatch.", c.stats.FingerprintMismatches)
		gauge("tsperrd_cluster_quorum", "Healthy-peer quorum required for readiness.", float64(c.quorum))
		fmt.Fprintf(w, "# HELP tsperrd_peer_healthy Per-peer health (1 healthy, 0 not).\n# TYPE tsperrd_peer_healthy gauge\n")
		// c.peers arrives in configuration order (no map iteration), so
		// scrapes diff cleanly.
		for _, p := range c.peers {
			v := 0
			if p.Healthy {
				v = 1
			}
			fmt.Fprintf(w, "tsperrd_peer_healthy{peer=%q} %d\n", p.Addr, v)
		}
	}

	if sg := g.surrogate; sg != nil {
		counter("tsperrd_surrogate_hits_total", "Requests answered by the surrogate fast tier.", m.surrogateHits.Load())
		fmt.Fprintf(w, "# HELP tsperrd_surrogate_escalations_total Requests the confidence gate escalated to the exact tier, by reason.\n# TYPE tsperrd_surrogate_escalations_total counter\n")
		fmt.Fprintf(w, "tsperrd_surrogate_escalations_total{reason=\"untrained\"} %d\n", m.escUntrained.Load())
		fmt.Fprintf(w, "tsperrd_surrogate_escalations_total{reason=\"uncertain\"} %d\n", m.escUncertain.Load())
		fmt.Fprintf(w, "tsperrd_surrogate_escalations_total{reason=\"near_threshold\"} %d\n", m.escNearThreshold.Load())
		counter("tsperrd_surrogate_observations_total", "Exact results fed back as surrogate training data.", m.surrogateObservations.Load())
		counter("tsperrd_surrogate_trainings_total", "Surrogate (re)trainings completed, including a restored snapshot.", sg.stats.Trainings)
		serve := 0.0
		if sg.mode == SurrogateServe {
			serve = 1.0
		}
		gauge("tsperrd_surrogate_serving", "1 in serve mode, 0 in shadow mode.", serve)
		gauge("tsperrd_surrogate_model_version", "Version of the surrogate model currently answering.", float64(sg.stats.ModelVersion))
		gauge("tsperrd_surrogate_train_size", "Observations the current surrogate model was fitted on.", float64(sg.stats.TrainSize))
		gauge("tsperrd_surrogate_buffer_size", "Observations in the surrogate training buffer.", float64(sg.stats.Buffered))
		renderResidualHistogram(w, "tsperrd_surrogate_residual_log10",
			"Shadow-mode |predicted - actual| log10 error of the surrogate against exact results.", &m.surrogateResidual)
	}

	renderHistogram(w, "tsperrd_request_seconds", "Estimate-request latency.", &m.latency)
	renderHistogram(w, "tsperrd_batch_seconds", "Batch-suite latency, admission to last entry.", &m.batchLatency)
}

// renderHistogram writes one cumulative fixed-bucket histogram.
func renderHistogram(w io.Writer, name, help string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range latencyBounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.buckets[len(latencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}
