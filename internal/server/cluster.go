package server

import (
	"context"
	"encoding/json"
	"net/http"

	"tsperr/internal/cluster"
	"tsperr/internal/core"
	"tsperr/internal/montecarlo"
)

// Cluster is the coordinator surface the server consumes;
// *cluster.Coordinator implements it, and tests substitute fakes. All methods
// must be safe for concurrent use.
type Cluster interface {
	// Route returns the healthy peer that owns a request key, or "" for
	// local execution.
	Route(key string) string
	// ProxyEstimate executes an estimate request on a peer and returns its
	// report.
	ProxyEstimate(ctx context.Context, addr string, body []byte) (*core.Report, error)
	// MCRun distributes one Monte Carlo validation job (core.MCRunner).
	MCRun(ctx context.Context, job core.MCJob) (*montecarlo.ShardedResult, error)
	// Ready reports whether a quorum of peers is healthy.
	Ready() bool
	HealthyPeers() int
	Quorum() int
	PeerStatuses() []cluster.PeerStatus
	Stats() cluster.Stats
}

// execute runs one admitted request: every computation — sync, async, and
// batch entries alike — funnels through here from the flight it landed on.
// With a cluster attached, Monte Carlo validations fan their chunks across
// the peers, and plain estimates route by consistent hash to the key's owner
// so identical requests hitting different front-ends dedup cluster-wide. A
// routed request that fails remotely falls back to local execution: the
// cluster can make a request cheaper, never fail it.
func (s *Server) execute(ctx context.Context, req *Request, key string) (*core.Report, error) {
	opts := req.analyzeOpts()
	c := s.cfg.Cluster
	// Forwarded requests are never routed again (no mesh loops), and a Monte
	// Carlo request runs its analytic phase locally. Operating-point
	// overrides route like plain estimates: the overrides are part of the
	// proxy body and the key, so the owner computes the identical result.
	if c != nil && opts.MCTrials == 0 && !req.forwarded {
		if addr := c.Route(key); addr != "" {
			if body, err := json.Marshal(req.proxyBody()); err == nil {
				if rep, err := c.ProxyEstimate(ctx, addr, body); err == nil {
					return rep, nil
				}
				// Fall through: the peer failed or disagreed; local
				// execution answers the request regardless.
			}
		}
	}
	if req.pointOverride() {
		// Monte Carlo fan-out does not apply: peers rebuild chunk specs at
		// their default point, so an override's trials stay local.
		return s.cfg.AnalyzeAt(ctx, req.Benchmark, req.Scenarios, opts, req.cond(), req.FreqRatio)
	}
	if c != nil && opts.MCTrials > 0 {
		// The analytic phase runs locally (it needs the warm framework
		// anyway); only the trial budget leaves the node.
		opts.MCRun = c.MCRun
	}
	return s.cfg.Analyze(ctx, req.Benchmark, req.Scenarios, opts)
}

// handleClusterChunk executes one Monte Carlo chunk on behalf of a cluster
// coordinator (POST /v1/cluster/chunk, mounted only on nodes configured with
// a ChunkSource). The spec is rebuilt from the chunk's benchmark identity
// against this node's warm framework — bit-identical to the coordinator's
// own, which the fingerprint check enforces — so the returned counts are the
// same bytes a local execution would have produced.
func (s *Server) handleClusterChunk(w http.ResponseWriter, r *http.Request) {
	s.met.chunkRequests.Add(1)
	if !s.ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "model warming up, retry shortly"})
		return
	}
	if fp := r.Header.Get(cluster.HeaderFingerprint); fp != "" && fp != s.cfg.Fingerprint {
		s.met.fingerprintRejects.Add(1)
		writeJSON(w, http.StatusConflict, errorResponse{Error: "model fingerprint mismatch"})
		return
	}
	var creq cluster.ChunkRequest
	if err := cluster.DecodeJSON(w, r.Body, maxRequestBody, &creq); err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid chunk request: " + err.Error()})
		return
	}
	spec, err := s.cfg.ChunkSource(r.Context(), creq.Benchmark, creq.Scenarios)
	var res montecarlo.ChunkResult
	if err == nil {
		spec.Trials, spec.Seed = creq.Trials, creq.Seed
		res, err = montecarlo.RunChunk(r.Context(), spec, creq.ChunkSize, creq.Index)
	}
	if err != nil {
		writeJSON(w, errorStatus(err, http.StatusBadRequest), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// readyResponse is the GET /readyz body: readiness to serve at full capacity,
// as opposed to /healthz liveness. A coordinator is ready only when the model
// is warm AND a quorum of its peers is healthy; /healthz stays 200 on a warm
// node with a degraded cluster, because the node still answers everything
// locally.
type readyResponse struct {
	Status string `json:"status"`
	Warm   bool   `json:"warm"`
	// HealthyPeers/Quorum/Peers appear only on cluster-configured nodes.
	HealthyPeers int                  `json:"healthy_peers,omitempty"`
	Quorum       int                  `json:"quorum,omitempty"`
	Peers        []cluster.PeerStatus `json:"peers,omitempty"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.met.readyRequests.Add(1)
	resp := readyResponse{Warm: s.ready()}
	ready := resp.Warm
	if c := s.cfg.Cluster; c != nil {
		resp.HealthyPeers = c.HealthyPeers()
		resp.Quorum = c.Quorum()
		resp.Peers = c.PeerStatuses()
		ready = ready && c.Ready()
	}
	code := http.StatusOK
	resp.Status = "ready"
	if !ready {
		resp.Status = "unready"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
