package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"tsperr/internal/core"
)

// The batch layer runs a whole suite of estimation scenarios through the
// existing flight table. Every entry goes through the same join path as a
// single request, which is what gives batches request-hash dedup (identical
// entries — and entries identical to anything in flight or cached — share
// one computation), bounded-queue backpressure, and drain semantics for
// free. What the layer adds is pacing: entries are fed to the queue as
// capacity frees up instead of 503ing the tail of a 30-entry suite, and
// per-entry status plus incremental results are addressable at
// GET /v1/batches/{id}.

// BatchRequest is the body of POST /v1/batch: a suite of estimate requests
// sharing the warm framework. Per-entry knobs (scenarios, retries,
// mc_trials, ...) are exactly the single-request ones. A one-entry batch is
// how a client collects a single result later.
type BatchRequest struct {
	Scenarios []Request `json:"scenarios"`
}

// batchPollInterval is how often the pacer re-offers an entry rejected by a
// full compute queue. Long enough to stay off the mutex, short enough that a
// freed worker never idles noticeably.
const batchPollInterval = 20 * time.Millisecond

// batchEntry is one suite entry's lifecycle. Fields are guarded by the
// server's mu except key and benchmark, which are immutable after creation.
type batchEntry struct {
	benchmark string
	key       string
	// status is "pending" (not yet admitted), "running", "done", "failed",
	// or "rejected" (server draining before admission); guarded by mu.
	status string
	// dedup marks an entry that shared another computation (within the batch
	// or with outside traffic); cached marks an LRU hit; guarded by mu.
	dedup  bool
	cached bool
	rep    *core.Report // guarded by mu
	errMsg string       // guarded by mu
}

// batch is one stored suite run, addressable via GET /v1/batches/{id}.
type batch struct {
	id      string
	created time.Time
	entries []*batchEntry
	// remaining counts entries not yet in a terminal state; the batch is
	// finished when it reaches zero; guarded by mu.
	remaining int
}

// parseBatchRequest decodes and validates a whole suite upfront, so a batch
// is accepted or rejected atomically — no half-admitted suites.
func parseBatchRequest(w http.ResponseWriter, r *http.Request, limits Limits, maxBatch int) ([]*Request, error) {
	var br BatchRequest
	if err := decodeJSON(w, r.Body, maxRequestBody, &br); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	if len(br.Scenarios) == 0 {
		return nil, fmt.Errorf("batch has no scenarios")
	}
	if len(br.Scenarios) > maxBatch {
		return nil, fmt.Errorf("batch of %d scenarios exceeds limit %d", len(br.Scenarios), maxBatch)
	}
	reqs := make([]*Request, len(br.Scenarios))
	for i := range br.Scenarios {
		req := br.Scenarios[i]
		req.normalize(limits)
		if err := req.validate(limits); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		reqs[i] = &req
	}
	return reqs, nil
}

type batchAcceptedResponse struct {
	BatchID   string `json:"batch_id"`
	Scenarios int    `json:"scenarios"`
	Poll      string `json:"poll"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batchRequests.Add(1)
	if !s.ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "model warming up, retry shortly"})
		return
	}
	reqs, err := parseBatchRequest(w, r, s.cfg.Limits, s.cfg.MaxBatch)
	for i := 0; err == nil && i < len(reqs); i++ {
		if serr := s.servable(reqs[i]); serr != nil {
			err = fmt.Errorf("scenario %d: %w", i, serr)
		}
	}
	if err != nil {
		s.met.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	b := &batch{
		id:        newID("batch"),
		created:   time.Now(),
		entries:   make([]*batchEntry, len(reqs)),
		remaining: len(reqs),
	}
	for i, req := range reqs {
		b.entries[i] = &batchEntry{
			benchmark: req.Benchmark,
			key:       req.Key(s.cfg.Fingerprint),
			status:    "pending",
		}
	}
	if !s.storeBatch(b) {
		s.met.queueRejects.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "batch store full, retry later"})
		return
	}
	s.met.batchesStarted.Add(1)
	// The pacer owns the suite from here; the response only acknowledges
	// admission. It runs under the server lifecycle, not the HTTP request —
	// a batch is not cancelled by its submitter disconnecting.
	go s.runBatch(b, reqs)
	writeJSON(w, http.StatusAccepted, batchAcceptedResponse{
		BatchID:   b.id,
		Scenarios: len(reqs),
		Poll:      "/v1/batches/" + b.id,
	})
}

// storeBatch retains a batch, evicting the oldest finished batch when over
// the retention cap; it refuses when every retained batch is still running.
func (s *Server) storeBatch(b *batch) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if len(s.batches) >= s.cfg.BatchRetention {
		evicted := false
		for i, id := range s.batchOrder {
			if old, ok := s.batches[id]; ok && old.remaining == 0 {
				delete(s.batches, id)
				s.batchOrder = append(s.batchOrder[:i], s.batchOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	s.batches[b.id] = b
	s.batchOrder = append(s.batchOrder, b.id)
	return true
}

// runBatch is the pacer: it feeds the suite's entries through the join path
// in order, retrying entries the bounded queue rejects until capacity frees
// up (that is the backpressure inheritance — the batch waits, it does not
// 503), and marking everything after the drain point rejected once the
// server starts closing. Entry results land asynchronously via finishEntry,
// so a long head entry never blocks dedup joins or completions further down
// the suite.
func (s *Server) runBatch(b *batch, reqs []*Request) {
	for i, req := range reqs {
		e := b.entries[i]
		for {
			rep, f, outcome := s.join(req, e.key)
			switch outcome {
			case joinCacheHit:
				s.finishEntry(b, e, rep, nil, true, true)
			case joinCreated:
				s.setEntryStatus(e, "running", false)
				go s.awaitEntry(b, e, f, false)
			case joinJoined:
				s.setEntryStatus(e, "running", true)
				go s.awaitEntry(b, e, f, true)
			case joinRejected:
				if s.draining() {
					s.rejectEntries(b, i)
					return
				}
				// Queue full: wait for capacity, then re-offer this entry.
				select {
				case <-time.After(batchPollInterval):
					continue
				case <-s.lifeCtx.Done():
					s.rejectEntries(b, i)
					return
				}
			}
			break
		}
	}
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) setEntryStatus(e *batchEntry, status string, dedup bool) {
	s.mu.Lock()
	e.status = status
	e.dedup = dedup
	s.mu.Unlock()
}

// awaitEntry records one entry's result when its flight lands. The entry
// holds a reference on the flight (taken at join) and waits without a
// deadline, so no client disconnect releases it: an admitted batch entry
// always runs to completion, drain included.
func (s *Server) awaitEntry(b *batch, e *batchEntry, f *flight, dedup bool) {
	_ = s.wait(context.Background(), e.key, f)
	s.finishEntry(b, e, f.rep, f.err, false, dedup)
}

// rejectEntries marks entries [from, end) terminally rejected — the server
// began draining before they were admitted.
func (s *Server) rejectEntries(b *batch, from int) {
	s.mu.Lock()
	for _, e := range b.entries[from:] {
		if e.status == "pending" {
			e.status = "rejected"
			e.errMsg = "server draining"
			b.remaining--
		}
	}
	done := b.remaining == 0
	s.mu.Unlock()
	if done {
		s.met.batchesFinished.Add(1)
		s.met.batchLatency.observeDuration(time.Since(b.created))
	}
}

// finishEntry moves one entry to a terminal state and, when it is the last,
// closes out the batch (latency histogram).
func (s *Server) finishEntry(b *batch, e *batchEntry, rep *core.Report, err error, cached, dedup bool) {
	s.mu.Lock()
	e.cached = cached
	e.dedup = dedup
	if err != nil {
		e.status = "failed"
		e.errMsg = err.Error()
	} else {
		e.status = "done"
		e.rep = rep
	}
	b.remaining--
	done := b.remaining == 0
	s.mu.Unlock()
	if done {
		s.met.batchesFinished.Add(1)
		s.met.batchLatency.observeDuration(time.Since(b.created))
	}
}

// batchEntryResponse is the wire form of one entry; Report appears as soon
// as that entry completes, which is what makes GET /v1/batches/{id}
// incremental.
type batchEntryResponse struct {
	Index     int          `json:"index"`
	Benchmark string       `json:"benchmark"`
	Key       string       `json:"key"`
	Status    string       `json:"status"`
	Dedup     bool         `json:"dedup,omitempty"`
	Cached    bool         `json:"cached,omitempty"`
	Report    *core.Report `json:"report,omitempty"`
	Error     string       `json:"error,omitempty"`
}

type batchResponse struct {
	BatchID   string               `json:"batch_id"`
	Status    string               `json:"status"`
	Scenarios []batchEntryResponse `json:"scenarios"`
	Pending   int                  `json:"pending"`
	Done      int                  `json:"done"`
	Failed    int                  `json:"failed"`
}

func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	s.met.batchGetRequests.Add(1)
	id := r.PathValue("id")
	s.mu.Lock()
	b, ok := s.batches[id]
	var resp batchResponse
	if ok {
		resp = batchResponse{BatchID: b.id, Status: "done", Scenarios: make([]batchEntryResponse, len(b.entries))}
		if b.remaining > 0 {
			resp.Status = "running"
		}
		for i, e := range b.entries {
			resp.Scenarios[i] = batchEntryResponse{
				Index: i, Benchmark: e.benchmark, Key: e.key, Status: e.status,
				Dedup: e.dedup, Cached: e.cached, Report: e.rep, Error: e.errMsg,
			}
			switch e.status {
			case "pending", "running":
				resp.Pending++
			case "done":
				resp.Done++
			default:
				resp.Failed++
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown batch %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
