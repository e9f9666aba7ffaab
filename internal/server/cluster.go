package server

import (
	"context"
	"encoding/json"
	"net/http"

	"tsperr/internal/cluster"
	"tsperr/internal/core"
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
	// Ready reports whether a quorum of peers is healthy.
	Ready() bool
	HealthyPeers() int
	Quorum() int
	PeerStatuses() []cluster.PeerStatus
	Stats() cluster.Stats
}

// execute runs one admitted request: every computation — sync, async, and
// batch entries alike — funnels through here from the flight it landed on.
// With a cluster attached, every request routes by consistent hash to its
// key's owner, so identical requests hitting different front-ends dedup
// cluster-wide. Monte Carlo validations and operating-point overrides route
// like plain estimates: their fields are part of the proxy body and the key,
// so the owner computes the identical report, montecarlo section included.
// A routed request that fails remotely falls back to local execution: the
// cluster can make a request cheaper, never fail it.
func (s *Server) execute(ctx context.Context, req *Request, key string) (*core.Report, error) {
	// Forwarded requests are never routed again (no mesh loops).
	if c := s.cfg.Cluster; c != nil && !req.forwarded {
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
		return s.cfg.AnalyzeAt(ctx, req.Benchmark, req.Scenarios, req.analyzeOpts(), req.cond(), req.FreqRatio)
	}
	return s.cfg.Analyze(ctx, req.Benchmark, req.Scenarios, req.analyzeOpts())
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
