package montecarlo_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/montecarlo"
)

// TestShardedDeterminismAcrossWorkers pins the tentpole invariant: the
// sharded run is bit-reproducible regardless of completion order. Running the
// same spec with 1 worker (the serial chunk-ordered path) and with many
// workers must produce identical counts and identical merged statistics.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 3)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 700, Seed: 21}
	opts := montecarlo.ShardOpts{ChunkSize: 64}

	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		opts.Workers = workers
		par, err := montecarlo.RunSharded(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Chunks != serial.Chunks {
			t.Fatalf("workers=%d: %d chunks vs %d serial", workers, par.Chunks, serial.Chunks)
		}
		for i := range par.Counts {
			//tsperrlint:ignore floatcmp determinism is asserted bit-identical, not approximate
			if par.Counts[i] != serial.Counts[i] {
				t.Fatalf("workers=%d: count[%d] = %v, serial %v", workers, i, par.Counts[i], serial.Counts[i])
			}
		}
		//tsperrlint:ignore floatcmp merged statistics are asserted bit-identical, not approximate
		if par.Stats != serial.Stats {
			t.Fatalf("workers=%d: stats %+v, serial %+v", workers, par.Stats, serial.Stats)
		}
		if par.Instructions != serial.Instructions {
			t.Fatalf("workers=%d: instructions %d vs %d", workers, par.Instructions, serial.Instructions)
		}
	}
}

// TestShardedStatsMatchCounts checks the streaming accumulator against the
// raw sample moments and that the sharded sampler agrees statistically with
// the monolithic serial Run (different RNG streams, same law).
func TestShardedStatsMatchCounts(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 2)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 2000, Seed: 5}
	sharded, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: 128, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Chunks != (2000+127)/128 {
		t.Fatalf("chunks = %d", sharded.Chunks)
	}
	if sharded.Stats.N != int64(spec.Trials) {
		t.Fatalf("stats N = %d, want %d", sharded.Stats.N, spec.Trials)
	}
	if d := math.Abs(sharded.Stats.Mean - sharded.Mean()); d > 1e-9 {
		t.Errorf("streaming mean %v vs sample mean %v", sharded.Stats.Mean, sharded.Mean())
	}
	if d := math.Abs(sharded.Stats.Std() - sharded.Std()); d > 1e-9 {
		t.Errorf("streaming std %v vs sample std %v", sharded.Stats.Std(), sharded.Std())
	}

	serial, err := montecarlo.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	se := serial.Std() / math.Sqrt(float64(spec.Trials))
	if d := math.Abs(sharded.Mean() - serial.Mean()); d > 6*se+0.05 {
		t.Errorf("sharded mean %v vs serial mean %v (se %v)", sharded.Mean(), serial.Mean(), se)
	}
}

func TestShardedValidation(t *testing.T) {
	p, _ := isa.Assemble("h", "halt\n")
	ctx := context.Background()
	if _, err := montecarlo.RunSharded(ctx, montecarlo.Spec{Prog: p, Trials: 0, Cond: []*errormodel.Conditionals{{}}}, montecarlo.ShardOpts{}); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := montecarlo.RunSharded(ctx, montecarlo.Spec{Prog: p, Trials: 1}, montecarlo.ShardOpts{}); err == nil {
		t.Error("no scenarios should fail")
	}
}

func TestShardedCancellation(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := montecarlo.RunSharded(ctx, montecarlo.Spec{Prog: p, Cond: conds, Trials: 4000, Seed: 1}, montecarlo.ShardOpts{ChunkSize: 16, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestChunkSeedsDiffer(t *testing.T) {
	// Adjacent chunks must not receive adjacent SplitMix64 states: the derived
	// seeds go through the output mix, so consecutive chunk streams do not
	// overlap as shifted copies of one another.
	seen := map[uint64]int{}
	for c := 0; c < 1000; c++ {
		s := montecarlo.ChunkSeed(42, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("chunk %d and %d share seed %#x", prev, c, s)
		}
		seen[s] = c
	}
	if montecarlo.ChunkSeed(1, 0) == montecarlo.ChunkSeed(2, 0) {
		t.Error("different base seeds should derive different chunk seeds")
	}
	// A shifted-stream relationship would make seed(c+1) - seed(c) constant.
	d0 := montecarlo.ChunkSeed(9, 1) - montecarlo.ChunkSeed(9, 0)
	d1 := montecarlo.ChunkSeed(9, 2) - montecarlo.ChunkSeed(9, 1)
	if d0 == d1 {
		t.Error("chunk seeds look like an arithmetic progression; streams would overlap")
	}
}

// TestChunkAssembleMatchesSharded pins the cluster-layer invariant: running
// every chunk individually through RunChunk — in any order, even shipped
// through a JSON round trip as the worker wire format does — and assembling
// must be bit-identical to RunSharded.
func TestChunkAssembleMatchesSharded(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 3)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 500, Seed: 99}
	const chunkSize = 64

	serial, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{ChunkSize: chunkSize, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := montecarlo.NumChunks(spec.Trials, chunkSize)
	if n != serial.Chunks {
		t.Fatalf("NumChunks = %d, RunSharded used %d", n, serial.Chunks)
	}
	chunks := make([]montecarlo.ChunkResult, 0, n)
	// Reverse order: assembly must not care who produced which chunk when.
	for c := n - 1; c >= 0; c-- {
		r, err := montecarlo.RunChunk(context.Background(), spec, chunkSize, c)
		if err != nil {
			t.Fatal(err)
		}
		// The cluster worker ships chunks as JSON; the round trip must be
		// bit-exact for the distributed result to stay bit-identical.
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var rt montecarlo.ChunkResult
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, rt)
	}
	got, err := montecarlo.Assemble(spec.Trials, chunkSize, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counts {
		//tsperrlint:ignore floatcmp determinism is asserted bit-identical, not approximate
		if got.Counts[i] != serial.Counts[i] {
			t.Fatalf("count[%d] = %v, serial %v", i, got.Counts[i], serial.Counts[i])
		}
	}
	//tsperrlint:ignore floatcmp merged statistics are asserted bit-identical, not approximate
	if got.Stats != serial.Stats {
		t.Fatalf("stats %+v, serial %+v", got.Stats, serial.Stats)
	}
	if got.Instructions != serial.Instructions || got.Chunks != serial.Chunks {
		t.Fatalf("instructions/chunks %d/%d vs serial %d/%d",
			got.Instructions, got.Chunks, serial.Instructions, serial.Chunks)
	}
}

func TestAssembleRejectsIncompleteSets(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 100, Seed: 1}
	const chunkSize = 32
	n := montecarlo.NumChunks(spec.Trials, chunkSize)
	chunks := make([]montecarlo.ChunkResult, 0, n)
	for c := 0; c < n; c++ {
		r, err := montecarlo.RunChunk(context.Background(), spec, chunkSize, c)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, r)
	}
	if _, err := montecarlo.Assemble(spec.Trials, chunkSize, chunks[:n-1]); err == nil {
		t.Error("missing chunk must fail assembly")
	}
	dup := append(append([]montecarlo.ChunkResult{}, chunks[:n-1]...), chunks[0])
	if _, err := montecarlo.Assemble(spec.Trials, chunkSize, dup); err == nil {
		t.Error("duplicate chunk must fail assembly")
	}
	short := append([]montecarlo.ChunkResult{}, chunks...)
	short[1].Counts = short[1].Counts[:len(short[1].Counts)-1]
	if _, err := montecarlo.Assemble(spec.Trials, chunkSize, short); err == nil {
		t.Error("truncated chunk (a partial remote response) must fail assembly")
	}
	oob := append([]montecarlo.ChunkResult{}, chunks...)
	oob[0].Index = n + 3
	if _, err := montecarlo.Assemble(spec.Trials, chunkSize, oob); err == nil {
		t.Error("out-of-range chunk index must fail assembly")
	}
}

// TestAssembleRejectsBadCounts feeds Assemble chunks whose numbers no chunk
// run produces, as a faulty or hostile cluster peer might send them: each
// must fail assembly with an error naming the chunk.
func TestAssembleRejectsBadCounts(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 100, Seed: 1}
	const chunkSize = 32
	n := montecarlo.NumChunks(spec.Trials, chunkSize)
	good := make([]montecarlo.ChunkResult, 0, n)
	for c := 0; c < n; c++ {
		r, err := montecarlo.RunChunk(context.Background(), spec, chunkSize, c)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, r)
	}
	if _, err := montecarlo.Assemble(spec.Trials, chunkSize, good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*montecarlo.ChunkResult)
	}{
		{"negative count", func(ch *montecarlo.ChunkResult) { ch.Counts[3] = -1 }},
		{"negative zero count", func(ch *montecarlo.ChunkResult) { ch.Counts[3] = math.Copysign(0, -1) }},
		{"fractional count", func(ch *montecarlo.ChunkResult) { ch.Counts[3] += 0.5 }},
		{"NaN count", func(ch *montecarlo.ChunkResult) { ch.Counts[3] = math.NaN() }},
		{"infinite count", func(ch *montecarlo.ChunkResult) { ch.Counts[3] = math.Inf(1) }},
		{"negative instructions", func(ch *montecarlo.ChunkResult) { ch.Instructions = -5 }},
	} {
		chunks := append([]montecarlo.ChunkResult{}, good...)
		chunks[2].Counts = append([]float64{}, chunks[2].Counts...)
		tc.corrupt(&chunks[2])
		if err := chunks[2].Validate(); err == nil {
			t.Errorf("%s: Validate accepted the chunk", tc.name)
		}
		_, err := montecarlo.Assemble(spec.Trials, chunkSize, chunks)
		if err == nil || !strings.Contains(err.Error(), "chunk 2 ") {
			t.Errorf("%s: Assemble error %v, want one naming chunk 2", tc.name, err)
		}
	}
}

func TestRunChunkValidation(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 100, Seed: 1}
	if _, err := montecarlo.RunChunk(context.Background(), spec, 32, -1); err == nil {
		t.Error("negative chunk index must fail")
	}
	if _, err := montecarlo.RunChunk(context.Background(), spec, 32, 4); err == nil {
		t.Error("chunk index past the budget must fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := montecarlo.RunChunk(ctx, spec, 32, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled chunk: err = %v, want Canceled", err)
	}
}

func TestInFlightChunksReturnsToZero(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	if _, err := montecarlo.RunSharded(context.Background(), montecarlo.Spec{Prog: p, Cond: conds, Trials: 300, Seed: 2},
		montecarlo.ShardOpts{ChunkSize: 32, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if n := montecarlo.InFlightChunks(); n != 0 {
		t.Fatalf("chunks still in flight after run: %d", n)
	}
}
