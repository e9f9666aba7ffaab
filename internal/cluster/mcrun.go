package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tsperr/internal/core"
	"tsperr/internal/montecarlo"
)

// maxChunkResponse bounds a worker's chunk response body: a chunk carries at
// most DefaultChunkSize float64 counts, far under this.
const maxChunkResponse = 8 << 20

// MCRun is the coordinator's core.MCRunner: it splits the validation run's
// trial budget into chunks and races them across the healthy peers and the
// local CPUs through the work-stealing scheduler. Failed remote chunks are
// re-queued for any other runner, chunks in flight longer than HedgeAfter are
// speculatively re-dispatched (first result wins), and the local runners
// guarantee completion even with every peer dead — the distributed result is
// bit-identical to montecarlo.RunSharded in every case, because chunk results
// do not depend on where they execute and assembly requires exactly one copy
// of each.
//
// Jobs the analytic run marked LocalOnly (degraded or fault-injected), jobs
// with no benchmark identity a worker could rebuild from, and jobs on a
// peerless coordinator run locally outright.
func (c *Coordinator) MCRun(ctx context.Context, job core.MCJob) (*montecarlo.ShardedResult, error) {
	if job.LocalOnly || job.Benchmark == "" || len(c.peers) == 0 {
		return montecarlo.RunSharded(ctx, job.Spec, job.Shard)
	}
	n := montecarlo.NumChunks(job.Spec.Trials, job.ChunkSize)
	if n == 0 {
		// Invalid budget; let the local path produce the canonical error.
		return montecarlo.RunSharded(ctx, job.Spec, job.Shard)
	}

	s := newSched(n)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// runners tracks the chunk executors; aux tracks the watcher and hedge
	// monitor, which exit on runCtx and are therefore waited only after the
	// explicit cancel below (folding them into runners would deadlock: they
	// outlive the last chunk).
	var runners, aux sync.WaitGroup

	// Cancellation watcher: a dead context releases every blocked runner.
	// fail is a no-op once all chunks are delivered, so the post-run cancel
	// cannot poison a completed run.
	aux.Add(1)
	go func() {
		defer aux.Done()
		<-runCtx.Done()
		s.fail(runCtx.Err())
	}()

	// Hedge monitor: re-dispatch chunks stuck in flight. The sweep period is
	// a fraction of the threshold so a stuck chunk waits at most ~1.25x
	// HedgeAfter before a second copy races it.
	aux.Add(1)
	go func() {
		defer aux.Done()
		period := c.cfg.HedgeAfter / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				if h := s.hedge(c.cfg.HedgeAfter); h > 0 {
					c.stats.hedgedChunks.Add(uint64(h))
				}
			}
		}
	}()

	// Local runners: always present, so the run completes even if every peer
	// dies mid-flight. A local execution failure is fatal — it would fail the
	// serial run identically.
	local := c.cfg.LocalWorkers
	if w := job.Shard.Workers; w > 0 && w < local {
		local = w
	}
	for i := 0; i < local; i++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for {
				chunk, ok := s.next()
				if !ok {
					return
				}
				res, err := montecarlo.RunChunk(runCtx, job.Spec, job.ChunkSize, chunk)
				if err != nil {
					s.fail(err)
					return
				}
				if s.deliver(chunk, res) {
					c.stats.localChunks.Add(1)
				}
			}
		}()
	}

	// Remote runners: PeerConcurrency per peer. A runner retires when its
	// peer drops unhealthy; its failed chunk re-queues for anyone else (work
	// stealing). Unhealthy-at-start peers contribute no runners.
	for _, p := range c.peers {
		if !p.isHealthy() {
			continue
		}
		for i := 0; i < c.cfg.PeerConcurrency; i++ {
			runners.Add(1)
			go func(p *peer) {
				defer runners.Done()
				for p.isHealthy() {
					chunk, ok := s.next()
					if !ok {
						return
					}
					res, err := c.remoteChunk(runCtx, p, job, chunk)
					if err != nil {
						c.reportFailure(p, err)
						if s.requeue(chunk) {
							c.stats.stolenChunks.Add(1)
						}
						if runCtx.Err() != nil {
							return
						}
						continue
					}
					c.reportSuccess(p)
					if s.deliver(chunk, res) {
						c.stats.remoteChunks.Add(1)
					}
				}
			}(p)
		}
	}

	runners.Wait()
	cancel()
	aux.Wait()
	results, err := s.outcome()
	if err != nil {
		return nil, err
	}
	return montecarlo.Assemble(job.Spec.Trials, job.ChunkSize, results)
}

// remoteChunk executes one chunk on a peer via POST /v1/cluster/chunk,
// bounded by ChunkTimeout.
func (c *Coordinator) remoteChunk(ctx context.Context, p *peer, job core.MCJob, chunk int) (montecarlo.ChunkResult, error) {
	body, err := json.Marshal(ChunkRequest{
		Benchmark: job.Benchmark,
		Scenarios: job.Scenarios,
		Trials:    job.Spec.Trials,
		Seed:      job.Spec.Seed,
		ChunkSize: job.ChunkSize,
		Index:     chunk,
	})
	if err != nil {
		return montecarlo.ChunkResult{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ChunkTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, p.addr+"/v1/cluster/chunk", bytes.NewReader(body))
	if err != nil {
		return montecarlo.ChunkResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderFingerprint, c.cfg.Fingerprint)
	req.Header.Set(HeaderChunk, strconv.Itoa(chunk))
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return montecarlo.ChunkResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		c.stats.fingerprintMismatches.Add(1)
		return montecarlo.ChunkResult{}, fmt.Errorf("cluster: %s runs a different model (409)", p.addr)
	}
	if resp.StatusCode != http.StatusOK {
		return montecarlo.ChunkResult{}, fmt.Errorf("cluster: chunk %d on %s: %s", chunk, p.addr, resp.Status)
	}
	res, err := decodeChunk(resp.Body, chunk)
	if err != nil {
		return montecarlo.ChunkResult{}, fmt.Errorf("cluster: chunk %d on %s: %w", chunk, p.addr, err)
	}
	return res, nil
}

// decodeChunk reads a peer's answer to a request for chunk: one JSON chunk
// result of at most maxChunkResponse bytes, for that chunk, whose counts
// pass ChunkResult.Validate.
func decodeChunk(body io.ReadCloser, chunk int) (montecarlo.ChunkResult, error) {
	var res montecarlo.ChunkResult
	if err := DecodeJSON(nil, body, maxChunkResponse, &res); err != nil {
		return montecarlo.ChunkResult{}, fmt.Errorf("bad response: %w", err)
	}
	if err := res.Validate(); err != nil {
		return montecarlo.ChunkResult{}, fmt.Errorf("bad response: %w", err)
	}
	if res.Index != chunk {
		return montecarlo.ChunkResult{}, fmt.Errorf("answered with chunk %d", res.Index)
	}
	return res, nil
}
