package montecarlo

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"tsperr/internal/cpu"
	"tsperr/internal/numeric"
	"tsperr/internal/pool"
)

// DefaultChunkSize is the trial count per shard when ShardOpts.ChunkSize is
// zero. Small enough that a 1500-trial validation run spreads across several
// workers, large enough that per-chunk machine setup is amortized.
const DefaultChunkSize = 256

// inFlightChunks counts Monte Carlo chunks currently executing in this
// process — local shards and chunks run on behalf of cluster peers alike.
// tsperrd samples it for the tsperrd_mc_chunks_inflight gauge.
var inFlightChunks atomic.Int64

// InFlightChunks reports the number of Monte Carlo chunks executing right
// now, process-wide.
func InFlightChunks() int64 { return inFlightChunks.Load() }

// ShardOpts controls how RunSharded splits the trial budget.
type ShardOpts struct {
	// ChunkSize is the number of trials per shard (0 = DefaultChunkSize).
	ChunkSize int
	// Workers bounds concurrent chunks (<= 0 selects GOMAXPROCS).
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

// ChunkResult is one chunk's contribution to a sharded run: the per-trial
// error counts for the chunk's global trial range, plus the dynamic
// instruction count of its last trial. It contains only integers and
// integral-valued float64 samples, and Go's JSON encoding round-trips
// float64 exactly, so a ChunkResult computed by a cluster worker and shipped
// back over HTTP/JSON assembles into bits identical to a locally computed
// one.
type ChunkResult struct {
	// Index is the chunk's position in the fixed split of the trial budget.
	Index int `json:"index"`
	// Counts holds the sampled error counts for trials
	// [Index*chunkSize, Index*chunkSize+len(Counts)) in global trial order.
	Counts []float64 `json:"counts"`
	// Instructions is the dynamic instruction count of the chunk's last
	// trial.
	Instructions int64 `json:"instructions"`
}

// Validate reports whether every count is a non-negative integer and the
// instruction count is not negative, as RunChunk produces them. A chunk from
// a cluster peer is untrusted input: Assemble rejects one that fails.
func (ch ChunkResult) Validate() error {
	if ch.Instructions < 0 {
		return fmt.Errorf("montecarlo: chunk %d carries %d instructions", ch.Index, ch.Instructions)
	}
	for i, v := range ch.Counts {
		// Modf leaves a NaN fraction for a NaN or an infinity, and Signbit
		// catches a negative zero, which no local count carries.
		if _, frac := math.Modf(v); frac != 0 || math.Signbit(v) {
			return fmt.Errorf("montecarlo: chunk %d count %d is %v, not a non-negative integer", ch.Index, i, v)
		}
	}
	return nil
}

// NumChunks returns how many chunks a trial budget splits into.
func NumChunks(trials, chunkSize int) int {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if trials <= 0 {
		return 0
	}
	return (trials + chunkSize - 1) / chunkSize
}

// chunkBounds returns the global trial range [lo, hi) of chunk c.
func chunkBounds(trials, chunkSize, c int) (lo, hi int) {
	lo = c * chunkSize
	hi = lo + chunkSize
	if hi > trials {
		hi = trials
	}
	return lo, hi
}

// validateSpec normalizes the spec's CPU configuration and rejects empty
// experiments, shared by every chunk-producing entry point.
func validateSpec(spec Spec) (cpu.Config, error) {
	if spec.Trials <= 0 {
		return cpu.Config{}, fmt.Errorf("montecarlo: non-positive trials")
	}
	if len(spec.Cond) == 0 {
		return cpu.Config{}, fmt.Errorf("montecarlo: no scenarios")
	}
	cfgCPU := spec.CPUConfig
	if cfgCPU.MemWords == 0 {
		cfgCPU = cpu.DefaultConfig()
	}
	return cfgCPU, nil
}

// RunChunk executes exactly one chunk of the sharded experiment: trials
// [c*chunkSize, min((c+1)*chunkSize, Trials)) with the chunk's own derived
// RNG stream. The result depends only on (spec, chunkSize, c) — never on
// where or when the chunk runs — which is the invariant that lets the
// cluster layer re-dispatch, hedge, and steal chunks freely without
// perturbing the assembled statistics.
func RunChunk(ctx context.Context, spec Spec, chunkSize, c int) (ChunkResult, error) {
	cfgCPU, err := validateSpec(spec)
	if err != nil {
		return ChunkResult{}, err
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if n := NumChunks(spec.Trials, chunkSize); c < 0 || c >= n {
		return ChunkResult{}, fmt.Errorf("montecarlo: chunk %d out of range [0, %d)", c, n)
	}
	inFlightChunks.Add(1)
	defer inFlightChunks.Add(-1)
	lo, hi := chunkBounds(spec.Trials, chunkSize, c)
	res := ChunkResult{Index: c, Counts: make([]float64, 0, hi-lo)}
	rng := numeric.NewRNG(chunkSeed(spec.Seed, c))
	for t := lo; t < hi; t++ {
		if err := ctx.Err(); err != nil {
			return ChunkResult{}, err
		}
		errors, n, err := runTrial(spec, cfgCPU, t, rng)
		if err != nil {
			return ChunkResult{}, err
		}
		res.Counts = append(res.Counts, errors)
		res.Instructions = n
	}
	return res, nil
}

// Assemble merges a complete set of chunk results into the sharded result.
// Every chunk must pass ChunkResult.Validate, and every chunk of the budget
// must be present exactly once (order does not matter — chunks land at
// their global indices, and the per-chunk statistics are folded in index
// order through the fixed pairwise tree), so the output is bit-identical no
// matter which mix of local and remote executors produced the chunks.
func Assemble(trials, chunkSize int, chunks []ChunkResult) (*ShardedResult, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	n := NumChunks(trials, chunkSize)
	if n == 0 {
		return nil, fmt.Errorf("montecarlo: non-positive trials")
	}
	if len(chunks) != n {
		return nil, fmt.Errorf("montecarlo: assemble got %d chunks, want %d", len(chunks), n)
	}
	res := &Result{Counts: make([]float64, trials)}
	stats := make([]numeric.StreamStats, n)
	seen := make([]bool, n)
	var last ChunkResult
	for _, ch := range chunks {
		if ch.Index < 0 || ch.Index >= n {
			return nil, fmt.Errorf("montecarlo: assemble chunk %d out of range [0, %d)", ch.Index, n)
		}
		if seen[ch.Index] {
			return nil, fmt.Errorf("montecarlo: assemble got chunk %d twice", ch.Index)
		}
		seen[ch.Index] = true
		lo, hi := chunkBounds(trials, chunkSize, ch.Index)
		if len(ch.Counts) != hi-lo {
			return nil, fmt.Errorf("montecarlo: chunk %d carries %d counts, want %d", ch.Index, len(ch.Counts), hi-lo)
		}
		if err := ch.Validate(); err != nil {
			return nil, err
		}
		for i, v := range ch.Counts {
			res.Counts[lo+i] = v
			stats[ch.Index].Add(v)
		}
		if ch.Index == n-1 {
			last = ch
		}
	}
	res.Instructions = last.Instructions
	return &ShardedResult{
		Result: res,
		Stats:  numeric.MergeStats(stats),
		Chunks: n,
	}, nil
}

// RunSharded executes the experiment with the trial budget split into
// fixed-size chunks distributed over a bounded worker pool. Each chunk owns
// an independent RNG whose seed is derived from (Seed, chunk index) through
// the SplitMix64 output function, so chunk streams are decorrelated and the
// sampled counts depend only on the spec — not on worker count or completion
// order. Counts land at their global trial index and per-chunk statistics are
// merged with a fixed pairwise tree, making the whole result bit-reproducible:
// RunSharded with N workers equals RunSharded with 1 worker exactly, and
// equals any mix of local and cluster-remote chunk execution assembled
// through Assemble.
func RunSharded(ctx context.Context, spec Spec, opts ShardOpts) (*ShardedResult, error) {
	if _, err := validateSpec(spec); err != nil {
		return nil, err
	}
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	chunks := NumChunks(spec.Trials, chunkSize)
	results := make([]ChunkResult, chunks)
	errs := make([]error, chunks)
	pool.Run(ctx, chunks, opts.Workers, true, errs, func(ctx context.Context, c int) error {
		r, err := RunChunk(ctx, spec, chunkSize, c)
		if err != nil {
			return err
		}
		results[c] = r
		return nil
	})
	if err := pool.FirstError(errs); err != nil {
		return nil, err
	}
	return Assemble(spec.Trials, chunkSize, results)
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
