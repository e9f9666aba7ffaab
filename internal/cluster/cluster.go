// Package cluster routes tsperrd estimate requests across peer daemons: a
// coordinator node sends each request to the owner of its key on a
// consistent-hash ring, so identical requests arriving at different
// front-ends dedup cluster-wide. Everything is stdlib HTTP/JSON.
//
// Routing is a scheduling decision, never a semantic one: the owner computes
// the same report the coordinator would (the pipeline is deterministic given
// the model fingerprint, which every routed request carries and the owner
// checks), the proxied report re-marshals to the owner's exact bytes, and any
// peer failure falls back to local execution. Killing every peer leaves a
// coordinator that answers everything itself — just without cluster-wide
// dedup.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tsperr/internal/retry"
)

// Config assembles a Coordinator. Zero fields select the documented defaults.
type Config struct {
	// Peers are the peer daemons' base URLs (e.g. "http://10.0.0.2:8080").
	// The local execution slot is always a ring member in addition to these.
	Peers []string
	// Fingerprint is this node's model fingerprint, sent with every
	// intra-cluster request and verified by the receiver.
	Fingerprint string
	// Client issues intra-cluster requests. Default: a dedicated client with
	// no global timeout (per-call contexts bound every request).
	Client *http.Client
	// ProbeInterval is the health-probe period for a healthy peer (default
	// 2s); a failing peer is instead re-probed on the Backoff schedule.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// Backoff shapes the probe retry schedule for an unhealthy peer (default
	// 250ms base, 5s cap, full jitter).
	Backoff retry.Policy
	// MaxConsecutiveFailures is how many request failures in a row mark a
	// peer unhealthy without waiting for a probe (default 2).
	MaxConsecutiveFailures int
	// Quorum is the healthy-peer count Ready requires (default: a majority
	// of the configured peers, minimum 1 when any peer is configured).
	Quorum int
}

// peer tracks one peer daemon's health and traffic counters.
type peer struct {
	addr string

	mu sync.Mutex
	// healthy is the routing eligibility flag; guarded by mu.
	healthy bool
	// consecFails counts request failures since the last success; guarded by mu.
	consecFails int
	// lastErr is the most recent failure, for /metrics and /readyz; guarded by mu.
	lastErr string

	successes atomic.Uint64
	failures  atomic.Uint64
}

func (p *peer) isHealthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// PeerStatus is a point-in-time snapshot of one peer, reported by /readyz and
// /metrics.
type PeerStatus struct {
	Addr                string `json:"addr"`
	Healthy             bool   `json:"healthy"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	Successes           uint64 `json:"successes"`
	Failures            uint64 `json:"failures"`
	LastError           string `json:"last_error,omitempty"`
}

// Stats are the coordinator's cumulative routing counters.
type Stats struct {
	// ProxiedEstimates counts estimate requests routed to a peer and answered
	// there; ProxyFallbacks counts routed requests that fell back to local
	// execution after a peer failure.
	ProxiedEstimates uint64
	ProxyFallbacks   uint64
	// FingerprintMismatches counts 409s from peers running a different model.
	FingerprintMismatches uint64
}

type stats struct {
	proxiedEstimates      atomic.Uint64
	proxyFallbacks        atomic.Uint64
	fingerprintMismatches atomic.Uint64
}

// Coordinator owns the cluster view of one tsperrd node: the peer set with
// its health probes, the consistent-hash ring, and ProxyEstimate, which
// executes a routed request on its owner.
type Coordinator struct {
	cfg   Config
	peers []*peer
	ring  *ring
	stats stats

	// probing serializes Start/Stop; guarded by probeMu.
	probeMu sync.Mutex
	// probeStop cancels the probe goroutines; guarded by probeMu.
	probeStop context.CancelFunc
	probeWG   sync.WaitGroup
}

// New builds a Coordinator over the configured peers. Peers start unhealthy;
// call Start to launch background probes (or ProbeOnce for a synchronous
// sweep) before expecting remote traffic.
func New(cfg Config) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Backoff == (retry.Policy{}) {
		cfg.Backoff = retry.Policy{Base: 250 * time.Millisecond, Cap: 5 * time.Second, Jitter: true}
	}
	if cfg.MaxConsecutiveFailures <= 0 {
		cfg.MaxConsecutiveFailures = 2
	}
	if cfg.Quorum <= 0 && len(cfg.Peers) > 0 {
		cfg.Quorum = (len(cfg.Peers) + 1) / 2
	}
	c := &Coordinator{cfg: cfg}
	members := make([]string, 0, len(cfg.Peers)+1)
	members = append(members, "") // the local execution slot
	for _, addr := range cfg.Peers {
		c.peers = append(c.peers, &peer{addr: addr})
		members = append(members, addr)
	}
	c.ring = newRing(members)
	return c
}

// Start launches one background health prober per peer under ctx. Healthy
// peers are re-probed every ProbeInterval; an unhealthy peer follows the
// capped-exponential-with-jitter Backoff schedule (seeded by its address:
// reproducible per peer, decorrelated across peers) so a recovering node is
// not stampeded.
func (c *Coordinator) Start(ctx context.Context) {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	if c.probeStop != nil {
		return
	}
	probeCtx, cancel := context.WithCancel(ctx)
	c.probeStop = cancel
	for _, p := range c.peers {
		c.probeWG.Add(1)
		go func(p *peer) {
			defer c.probeWG.Done()
			c.probeLoop(probeCtx, p)
		}(p)
	}
}

// Stop halts the probers and waits for them to exit.
func (c *Coordinator) Stop() {
	c.probeMu.Lock()
	stop := c.probeStop
	c.probeStop = nil
	c.probeMu.Unlock()
	if stop != nil {
		stop()
	}
	c.probeWG.Wait()
}

func (c *Coordinator) probeLoop(ctx context.Context, p *peer) {
	b := retry.NewBackoff(c.cfg.Backoff, hash64(p.addr))
	for {
		healthy := c.probe(ctx, p)
		var err error
		if healthy {
			b.Reset()
			err = retry.Sleep(ctx, c.cfg.ProbeInterval)
		} else {
			err = b.Wait(ctx)
		}
		if err != nil {
			return
		}
	}
}

// probe checks one peer's /healthz and updates its state.
func (c *Coordinator) probe(ctx context.Context, p *peer) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, p.addr+"/healthz", nil)
	if err != nil {
		c.markPeer(p, false, err)
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.markPeer(p, false, err)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.markPeer(p, false, fmt.Errorf("probe: %s", resp.Status))
		return false
	}
	c.markPeer(p, true, nil)
	return true
}

// ProbeOnce sweeps every peer synchronously — startup and tests use it to
// establish the health view without waiting out a probe period.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.probe(ctx, p)
		}(p)
	}
	wg.Wait()
}

// markPeer applies a probe outcome: probes flip health in both directions and
// clear the consecutive-failure count on success.
func (c *Coordinator) markPeer(p *peer, healthy bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.healthy = healthy
	if healthy {
		p.consecFails = 0
		p.lastErr = ""
	} else if err != nil {
		p.lastErr = err.Error()
	}
}

// reportSuccess records a successful intra-cluster request against a peer.
func (c *Coordinator) reportSuccess(p *peer) {
	p.successes.Add(1)
	p.mu.Lock()
	p.consecFails = 0
	p.mu.Unlock()
}

// reportFailure records a failed intra-cluster request; enough failures in a
// row mark the peer unhealthy immediately (the prober restores it later)
// so the dispatch path stops wasting timeouts on a dead node.
func (c *Coordinator) reportFailure(p *peer, err error) {
	p.failures.Add(1)
	p.mu.Lock()
	p.consecFails++
	p.lastErr = err.Error()
	if p.consecFails >= c.cfg.MaxConsecutiveFailures {
		p.healthy = false
	}
	p.mu.Unlock()
}

// peerByAddr returns the tracked peer for a ring member ("" and unknown
// addresses return nil).
func (c *Coordinator) peerByAddr(addr string) *peer {
	for _, p := range c.peers {
		if p.addr == addr {
			return p
		}
	}
	return nil
}

// HealthyPeers counts peers currently marked healthy.
func (c *Coordinator) HealthyPeers() int {
	n := 0
	for _, p := range c.peers {
		if p.isHealthy() {
			n++
		}
	}
	return n
}

// Quorum is the healthy-peer count Ready requires.
func (c *Coordinator) Quorum() int { return c.cfg.Quorum }

// Ready reports whether the cluster view supports cluster-wide routing: a
// quorum of peers is healthy. A coordinator below quorum still serves — every
// path degrades to local execution — but advertises not-ready so load
// balancers prefer fully connected nodes.
func (c *Coordinator) Ready() bool { return c.HealthyPeers() >= c.cfg.Quorum }

// PeerStatuses snapshots every peer in configuration order.
func (c *Coordinator) PeerStatuses() []PeerStatus {
	out := make([]PeerStatus, len(c.peers))
	for i, p := range c.peers {
		p.mu.Lock()
		out[i] = PeerStatus{
			Addr:                p.addr,
			Healthy:             p.healthy,
			ConsecutiveFailures: p.consecFails,
			LastError:           p.lastErr,
		}
		p.mu.Unlock()
		out[i].Successes = p.successes.Load()
		out[i].Failures = p.failures.Load()
	}
	return out
}

// Stats snapshots the routing counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		ProxiedEstimates:      c.stats.proxiedEstimates.Load(),
		ProxyFallbacks:        c.stats.proxyFallbacks.Load(),
		FingerprintMismatches: c.stats.fingerprintMismatches.Load(),
	}
}

// Route returns the healthy cluster member that owns a request key, or ""
// for local execution. Ownership comes from the consistent-hash ring over
// all members; an unhealthy owner's keys spill to its ring successor rather
// than reshuffling the whole space, so cluster-wide dedup survives churn for
// every key not on the failed node.
func (c *Coordinator) Route(key string) string {
	for _, m := range c.ring.owners(key) {
		if m == "" {
			return ""
		}
		if p := c.peerByAddr(m); p != nil && p.isHealthy() {
			return m
		}
	}
	return ""
}
