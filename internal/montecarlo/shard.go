package montecarlo

import (
	"context"
	"sync/atomic"

	"tsperr/internal/numeric"
	"tsperr/internal/pool"
)

// defaultChunkSize is the trial count per shard when ShardOpts.ChunkSize is
// zero. Small enough that a 1500-trial validation run spreads across several
// workers, large enough that per-chunk scheduling is amortized.
const defaultChunkSize = 256

// inFlightChunks counts Monte Carlo chunks currently executing in this
// process. tsperrd samples it for the tsperrd_mc_chunks_inflight gauge.
var inFlightChunks atomic.Int64

// InFlightChunks reports the number of Monte Carlo chunks executing right
// now, process-wide.
func InFlightChunks() int64 { return inFlightChunks.Load() }

// ShardOpts controls how RunSharded splits the trial budget.
type ShardOpts struct {
	// ChunkSize is the number of trials per shard (0 = 256).
	ChunkSize int
	// Workers bounds concurrent scenario recordings and chunks (<= 0
	// selects GOMAXPROCS).
	Workers int
}

// ShardedResult extends Result with the streaming statistics merged from the
// per-chunk accumulators.
type ShardedResult struct {
	*Result
	// Stats is the pairwise-merged Welford accumulator over all trials. It is
	// bit-identical across worker counts because chunks are merged in index
	// order, never completion order.
	Stats numeric.StreamStats
	// Chunks is the number of shards the trial budget was split into.
	Chunks int
}

// RunSharded executes the experiment with the trial budget split into
// fixed-size chunks distributed over a bounded worker pool. Each chunk owns
// an independent RNG whose seed is derived from (Seed, chunk index) through
// the SplitMix64 output function, so chunk streams are decorrelated and the
// sampled counts depend only on the spec — not on worker count or completion
// order. Counts land at their global trial index and per-chunk statistics are
// merged with a fixed pairwise tree, making the whole result bit-reproducible:
// RunSharded with N workers equals RunSharded with 1 worker exactly.
func RunSharded(ctx context.Context, spec Spec, opts ShardOpts) (*ShardedResult, error) {
	seqs, err := record(ctx, spec, opts.Workers)
	if err != nil {
		return nil, err
	}
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = defaultChunkSize
	}
	chunks := (spec.Trials + chunkSize - 1) / chunkSize
	res := &Result{Counts: make([]float64, spec.Trials), Instructions: lastInstructions(spec, seqs)}
	stats := make([]numeric.StreamStats, chunks)
	errs := make([]error, chunks)
	pool.Run(ctx, chunks, opts.Workers, true, errs, func(ctx context.Context, c int) error {
		inFlightChunks.Add(1)
		defer inFlightChunks.Add(-1)
		rng := numeric.NewRNG(chunkSeed(spec.Seed, c))
		for t := c * chunkSize; t < min((c+1)*chunkSize, spec.Trials); t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			res.Counts[t] = walk(seqs, spec.Cond, t, rng)
			stats[c].Add(res.Counts[t])
		}
		return nil
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	return &ShardedResult{
		Result: res,
		Stats:  numeric.MergeStats(stats),
		Chunks: chunks,
	}, nil
}

// chunkSeed derives the RNG seed for one chunk by pushing (seed, chunk)
// through the SplitMix64 output function. Seeding chunk c with seed+c
// directly would hand every chunk the chunk-0 stream shifted by c draws
// (SplitMix64 state advances by a fixed increment per draw); hashing through
// the output mix scatters the per-chunk states across the full 64-bit space
// instead.
func chunkSeed(seed uint64, chunk int) uint64 {
	return numeric.NewRNG(seed ^ (uint64(chunk)+1)*0x9E3779B97F4A7C15).Uint64()
}
