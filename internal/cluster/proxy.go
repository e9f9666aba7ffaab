package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"tsperr/internal/core"
)

// maxProxyResponse bounds a proxied estimate response body.
const maxProxyResponse = 8 << 20

// proxyResponse is the slice of the peer's estimate response the coordinator
// needs; core.Report's UnmarshalJSON guarantees the re-marshal served to the
// client is byte-identical to what the peer produced.
type proxyResponse struct {
	Report *core.Report `json:"report"`
}

// proxyError mirrors the peer's error body for diagnostics.
type proxyError struct {
	Error string `json:"error"`
}

// ProxyEstimate routes an estimate request (its already-validated JSON body)
// to the peer that owns its key and returns the peer's report. The Forwarded
// header stops the peer from routing onward, and the fingerprint header makes
// a model mismatch an explicit 409 instead of silently mixed results. Any
// error — transport, timeout, non-200 — is reported against the peer and
// surfaced to the caller, which falls back to local execution: routing can
// make a request cheaper, never fail it.
func (c *Coordinator) ProxyEstimate(ctx context.Context, addr string, body []byte) (*core.Report, error) {
	p := c.peerByAddr(addr)
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", addr)
	}
	rep, err := c.proxyOnce(ctx, p, body)
	if err != nil {
		c.reportFailure(p, err)
		c.stats.proxyFallbacks.Add(1)
		return nil, err
	}
	c.reportSuccess(p)
	c.stats.proxiedEstimates.Add(1)
	return rep, nil
}

func (c *Coordinator) proxyOnce(ctx context.Context, p *peer, body []byte) (*core.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.addr+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, "1")
	req.Header.Set(HeaderFingerprint, c.cfg.Fingerprint)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusConflict {
		c.stats.fingerprintMismatches.Add(1)
		return nil, fmt.Errorf("cluster: %s runs a different model (409)", p.addr)
	}
	if resp.StatusCode != http.StatusOK {
		var pe proxyError
		if json.Unmarshal(raw, &pe) == nil && pe.Error != "" {
			return nil, fmt.Errorf("cluster: %s: %s: %s", p.addr, resp.Status, pe.Error)
		}
		return nil, fmt.Errorf("cluster: %s: %s", p.addr, resp.Status)
	}
	var pr proxyResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return nil, fmt.Errorf("cluster: %s: bad estimate response: %w", p.addr, err)
	}
	if pr.Report == nil {
		return nil, fmt.Errorf("cluster: %s: estimate response carried no report", p.addr)
	}
	return pr.Report, nil
}
