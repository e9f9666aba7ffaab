package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// BatchItem is one entry of an estimation suite: a named program spec plus
// its analysis options, all sharing the batch's framework.
type BatchItem struct {
	Name string
	Spec ProgramSpec
	Opts AnalyzeOpts
}

// Key returns the canonical content hash of the item's result-determining
// inputs. Two items with equal keys produce bit-identical reports, so a batch
// computes each key once and fans the report out (the analysis pipeline is
// deterministic for a fixed spec). The program is identified by Name — the
// same contract the estimation service uses — so a suite must not bind one
// name to two different programs. Scheduling knobs (Workers, backoff) are
// deliberately excluded: they change latency, not results.
func (it BatchItem) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "name=%s\nscenarios=%d\nscale=%d\nretries=%d\nmin=%d\nfailfast=%t\n",
		it.Name, it.Spec.Scenarios, it.Spec.ScaleToInsts,
		it.Opts.Retries, it.Opts.MinScenarios, it.Opts.FailFast)
	fmt.Fprintf(h, "mc=%d\nmcchunk=%d\nmcseed=%d\n",
		it.Opts.MCTrials, it.Opts.MCChunkSize, it.Opts.MCSeed)
	return hex.EncodeToString(h.Sum(nil))
}

// BatchItemResult is the outcome of one suite entry.
type BatchItemResult struct {
	// Index is the item's position in the submitted suite.
	Index int
	Name  string
	// Key is the item's canonical content hash (shared by deduped items).
	Key    string
	Report *Report
	Err    error
	// Dedup marks a result reused from an identical item earlier in the
	// suite rather than recomputed.
	Dedup bool
	// Elapsed is the computation time (zero for deduped items).
	Elapsed time.Duration
}

// BatchResult is the outcome of a suite.
type BatchResult struct {
	// Items holds one result per submitted item, in suite order.
	Items []BatchItemResult
	// Computed is the number of distinct computations performed; Deduped is
	// how many items reused an earlier identical item's report.
	Computed int
	Deduped  int
	// Failed counts items that ended in error.
	Failed int
	// Elapsed is the wall-clock time of the whole batch.
	Elapsed time.Duration
}

// EstimateBatch runs a suite of scenarios against this one framework. Items
// run in suite order — each item's internal phases (scenario simulation,
// marginal solves, sharded Monte Carlo chunks) already fan out over the
// bounded worker pool, so batch-level parallelism would only oversubscribe
// it. Identical items (equal Key()) are computed once and fanned out, which
// is what makes a suite of near-duplicate sweep points cheap. A failing item
// does not stop the batch, so one bad benchmark does not sink a 30-entry
// sweep. Cancellation stops between items; completed results are kept and
// the remaining items carry the context error.
//
// onResult, when non-nil, streams each item's result as soon as it is known
// (computation finished, reused, or failed), in suite order. It is called
// synchronously from the batch loop.
func (f *Framework) EstimateBatch(ctx context.Context, items []BatchItem, onResult func(BatchItemResult)) (*BatchResult, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &BatchResult{Items: make([]BatchItemResult, len(items))}
	byKey := map[string]int{} // key -> index of the item that computed it
	emit := func(r BatchItemResult) {
		res.Items[r.Index] = r
		if r.Err != nil {
			res.Failed++
		}
		if onResult != nil {
			onResult(r)
		}
	}
	for i, it := range items {
		r := BatchItemResult{Index: i, Name: it.Name, Key: it.Key()}
		if err := ctx.Err(); err != nil {
			r.Err = fmt.Errorf("core: batch aborted at item %d: %w", i, err)
			emit(r)
			continue
		}
		if first, ok := byKey[r.Key]; ok {
			prev := res.Items[first]
			r.Report, r.Err = prev.Report, prev.Err
			r.Dedup = true
			res.Deduped++
			emit(r)
			continue
		}
		t0 := time.Now()
		rep, err := f.AnalyzeWithOpts(ctx, it.Name, it.Spec, it.Opts)
		r.Report, r.Err = rep, err
		r.Elapsed = time.Since(t0)
		res.Computed++
		byKey[r.Key] = i
		emit(r)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
