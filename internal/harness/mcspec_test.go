package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/core"
	"tsperr/internal/errormodel"
	"tsperr/internal/montecarlo"
)

// TestMCSpecRebuildsTheCoordinatorSpec proves the worker-side contract of the
// cluster chunk endpoint: a spec rebuilt from nothing but the benchmark
// identity produces chunk results bit-identical to those from the spec a
// coordinator derives during its own analytic run. This is what makes remote
// chunk execution invisible in the assembled statistics.
func TestMCSpecRebuildsTheCoordinatorSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("full framework run")
	}
	ctx := context.Background()

	// Coordinator side: capture the spec core hands its MCRunner.
	var captured montecarlo.Spec
	var chunkSize int
	opts := core.AnalyzeOpts{
		MCTrials:    96,
		MCSeed:      11,
		MCChunkSize: 32,
		MCRun: func(ctx context.Context, job core.MCJob) (*montecarlo.ShardedResult, error) {
			captured = job.Spec
			chunkSize = job.ChunkSize
			return montecarlo.RunSharded(ctx, job.Spec, job.Shard)
		},
	}
	if _, err := nominal.Analyze(ctx, "patricia", 2, opts); err != nil {
		t.Fatal(err)
	}
	if captured.Trials != 96 || chunkSize != 32 {
		t.Fatalf("MCRun hook saw trials=%d chunkSize=%d", captured.Trials, chunkSize)
	}

	// Worker side: rebuild from the benchmark identity alone.
	spec, err := nominal.MCSpec(ctx, "patricia", 2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trials != 0 || spec.Seed != 0 {
		t.Fatalf("MCSpec must leave Trials/Seed zero, got %d/%d", spec.Trials, spec.Seed)
	}
	spec.Trials, spec.Seed = captured.Trials, captured.Seed

	n := montecarlo.NumChunks(captured.Trials, chunkSize)
	for c := 0; c < n; c++ {
		want, err := montecarlo.RunChunk(ctx, captured, chunkSize, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := montecarlo.RunChunk(ctx, spec, chunkSize, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != want.Index || got.Instructions != want.Instructions {
			t.Fatalf("chunk %d: index/instructions %d/%d, want %d/%d",
				c, got.Index, got.Instructions, want.Index, want.Instructions)
		}
		if len(got.Counts) != len(want.Counts) {
			t.Fatalf("chunk %d: %d counts, want %d", c, len(got.Counts), len(want.Counts))
		}
		for i := range want.Counts {
			//tsperrlint:ignore floatcmp bit-identical reproduction is the contract under test
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("chunk %d trial %d: count %v, want %v", c, i, got.Counts[i], want.Counts[i])
			}
		}
	}

	// The second call must come from the memo: same backing conditionals.
	again, err := nominal.MCSpec(ctx, "patricia", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Cond) == 0 || &again.Cond[0] != &spec.Cond[0] {
		t.Error("second MCSpec call rebuilt instead of hitting the memo")
	}
}

func TestMCSpecUnknownBenchmarkFails(t *testing.T) {
	e := newEngine(cell.OperatingCondition{}, "")
	if _, err := e.MCSpec(context.Background(), "nonesuch", 2); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
	// The failure must not be latched: the same key still errors (not a stale
	// zero spec) and the memo does not grow.
	if _, err := e.MCSpec(context.Background(), "nonesuch", 2); err == nil {
		t.Fatal("failed build must not be cached as success")
	}
	e.specMu.Lock()
	n := len(e.specMemo)
	e.specMu.Unlock()
	if n != 0 {
		t.Errorf("memo holds %d entries after failed builds", n)
	}
}

// Regression: a caller that joined another caller's in-flight build got that
// caller's error, even its context cancellation, which turned a live chunk
// request on a cluster worker into a 503. A joiner whose own context is live
// must run the build itself.
func TestMCSpecJoinerOutlivesCancelledBuilder(t *testing.T) {
	shared, err := nominal.Framework()
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(cell.OperatingCondition{}, "")
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	e.build = func(errormodel.Options, string) (*core.Framework, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
		}
		return shared, nil
	}
	const bench, scenarios = "typeset", 1

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	builderErr, joinerErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := e.MCSpec(cancelled, bench, scenarios)
		builderErr <- err
	}()
	<-started // the builder now holds the shared run
	go func() {
		_, err := e.MCSpec(context.Background(), bench, scenarios)
		joinerErr <- err
	}()
	// Nothing observable marks the joiner as waiting on the run, so give it
	// time to get there. A joiner that arrives after the failure starts its
	// own run and passes without exercising the join, never falsely.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder: err = %v, want context.Canceled", err)
	}
	if err := <-joinerErr; err != nil {
		t.Fatalf("live joiner got the builder's error: %v", err)
	}
}
