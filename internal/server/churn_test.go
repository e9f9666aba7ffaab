package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/core"
)

// TestChurnFlightTableAndCache hammers the dedup/cache layer with a seeded
// randomized interleaving of estimates, one-entry batches, client
// cancellations, injected failures, and injected panics, with a cache small
// enough to force constant LRU eviction. Run under -race this is the
// regression net for the flight-table locking discipline. The invariants at
// quiesce:
//
//   - no flight leaks (the table is empty once the queue drains);
//   - no flight is double-retired (a second close(f.done) would crash a
//     worker goroutine, and the panics counter must match the injected
//     panics exactly);
//   - every admitted computation ran Analyze exactly once
//     (tsperrd_computations_total == observed Analyze calls);
//   - the LRU never exceeds its capacity;
//   - every batch entry reaches a terminal state.
func TestChurnFlightTableAndCache(t *testing.T) {
	var analyzeCalls, panicCalls atomic.Int64
	const cacheSize = 4
	s, ts := newTestServer(t, context.Background(), Config{
		Workers:    4,
		QueueDepth: 8,
		CacheSize:  cacheSize,
		Analyze: func(ctx context.Context, benchmark string, scenarios int, opts core.AnalyzeOpts) (*core.Report, error) {
			analyzeCalls.Add(1)
			switch {
			case strings.HasPrefix(benchmark, "panic"):
				panicCalls.Add(1)
				panic("churn: injected panic")
			case strings.HasPrefix(benchmark, "fail"):
				return nil, errors.New("churn: injected failure")
			}
			// Jitter so flights overlap with joins, cancellations, and
			// evictions; the cancellation path must still win promptly.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(scenarios) * time.Millisecond):
			}
			return fakeReport(benchmark), nil
		},
	})

	const (
		clients     = 8
		opsPerGoro  = 50
		benchmarks  = 10 // distinct names; x3 scenario values >> cacheSize keys
		batchEvery  = 4  // 1-in-N ops are one-entry batches
		cancelEvery = 5  // 1-in-N estimates use a near-immediate client deadline
		faultEvery  = 8  // 1-in-N ops target a panic or failure benchmark
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGoro; i++ {
				name := fmt.Sprintf("bm-%d", rng.Intn(benchmarks))
				if rng.Intn(faultEvery) == 0 {
					if rng.Intn(2) == 0 {
						name = fmt.Sprintf("panic-%d", rng.Intn(3))
					} else {
						name = fmt.Sprintf("fail-%d", rng.Intn(3))
					}
				}
				scenarios := 1 + rng.Intn(3)
				body := fmt.Sprintf(`{"benchmark":%q,"scenarios":%d}`, name, scenarios)

				var code int
				var err error
				if rng.Intn(batchEvery) == 0 {
					// Not postBatch: t.Fatal must not be called off the test
					// goroutine.
					var resp *http.Response
					resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"scenarios":[`+body+`]}`))
					if err == nil {
						code = resp.StatusCode
						resp.Body.Close()
					}
				} else {
					ctx := context.Background()
					var cancel context.CancelFunc = func() {}
					if rng.Intn(cancelEvery) == 0 {
						ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2))*time.Millisecond)
					}
					code, _, err = postEstimate(ctx, ts.URL, body)
					cancel()
				}
				if err != nil {
					continue // client-side cancellation surfaces as a transport error
				}
				switch code {
				case http.StatusOK, http.StatusAccepted,
					http.StatusInternalServerError, http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected status %d for %s", code, body)
				}
				if i%16 == 0 {
					if _, err := http.Get(ts.URL + "/metrics"); err != nil {
						t.Errorf("metrics scrape: %v", err)
					}
				}
			}
		}(int64(0xc4c4 + c))
	}
	wg.Wait()

	// Quiesce: abandoned flights retire once their cancelled Analyze returns,
	// and a batch entry the full queue paced is admitted and lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		inflight, remaining := len(s.flights), 0
		for _, b := range s.batches {
			remaining += b.remaining
		}
		s.mu.Unlock()
		if inflight == 0 && remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight table leaked %d entries, batches await %d entries after churn", inflight, remaining)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The scraped metrics are integer-valued counters; compare as ints so the
	// identities are exact.
	m := scrapeMetrics(t, ts.URL)
	if got, want := int64(m["tsperrd_computations_total"]), analyzeCalls.Load(); got != want {
		t.Errorf("computations metric %v != Analyze calls %v (flight ran twice or was lost)", got, want)
	}
	if got, want := int64(m["tsperrd_panics_total"]), panicCalls.Load(); got != want {
		t.Errorf("panics metric %v != injected panics %v (double or dropped retire)", got, want)
	}
	if v, ok := m["tsperrd_inflight_computations"]; !ok || v != 0 {
		t.Errorf("inflight gauge %v (exported: %v) after quiesce", v, ok)
	}
	s.mu.Lock()
	cached := s.cache.Len()
	unfinished := 0
	for _, b := range s.batches {
		for _, e := range b.entries {
			if e.status == "pending" || e.status == "running" {
				unfinished++
			}
		}
	}
	s.mu.Unlock()
	if cached > cacheSize {
		t.Errorf("LRU holds %d entries, capacity %d", cached, cacheSize)
	}
	if unfinished != 0 {
		t.Errorf("%d batch entries unfinished after quiesce", unfinished)
	}
	if analyzeCalls.Load() == 0 {
		t.Error("churn never reached Analyze — fixture broken")
	}
}
