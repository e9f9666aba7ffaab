package montecarlo_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
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
			if par.Counts[i] != serial.Counts[i] {
				t.Fatalf("workers=%d: count[%d] = %v, serial %v", workers, i, par.Counts[i], serial.Counts[i])
			}
		}
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

// TestShardedCountsPinned pins the sampled counts of one small spec at two
// seeds and the default chunk size, as a SHA-256 of their bits. The other
// sharding tests compare chunked runs with chunked runs, and the goldens go
// through the serial Run, so only this test notices a change to how a chunk's
// RNG is seeded — such as seeding chunk c with Seed+c, which hands every
// chunk the chunk-0 stream shifted by c draws.
func TestShardedCountsPinned(t *testing.T) {
	p, _, _, conds := fixture(t, 0.02, 0.05, 1)
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "31199b86a6d3ce06431dccc8c81c26315e4b5c0c993b9af9984bd127e6757605"},
		{2, "2380e0efb5317323c3b87a474b95d35713fbf927eb69207736829dd1613c7c87"},
	} {
		spec := montecarlo.Spec{Prog: p, Cond: conds, Trials: 600, Seed: tc.seed}
		res, err := montecarlo.RunSharded(context.Background(), spec, montecarlo.ShardOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Chunks != 3 {
			t.Fatalf("seed %d: %d chunks, want 3", tc.seed, res.Chunks)
		}
		h := sha256.New()
		for _, v := range res.Counts {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d: counts digest %s, want %s", tc.seed, got, tc.want)
		}
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
