// Package pool provides the bounded, panic-recovering worker pool shared by
// the estimation pipeline: scenario simulation and marginal solves
// (internal/core), datapath-model training and block-parallel control
// characterization (internal/errormodel). It grew out of the resilient run
// layer of the core package and was lifted here so the once-per-design and
// once-per-program characterization phases can reuse the same bounded
// concurrency and failure semantics. Its LRU holds the daemon's result
// cache, and its Memo, built on an LRU, the once-per-design state: an
// engine's framework, the frameworks of its other voltages, and a
// machine's period-free control-stimulus DTS.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a worker panic recovered by the pool and converted into an
// error, so one panicking task cannot kill the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Run executes work(ctx, i) for every index i in [0, n) on a bounded pool of
// min(workers, n) goroutines; workers <= 0 selects runtime.GOMAXPROCS(0). A
// panicking task is recovered into a *PanicError. When errs is non-nil it
// must have length >= n; each task's failure is recorded at its own index
// (distinct slots, so no synchronization is needed by the caller). Once ctx
// is done, Run dispatches no further task and records ctx.Err() at every
// index it did not run. With failFast set, the first failure cancels the
// pool context so in-flight tasks abort at their next context poll and
// pending tasks observe the cancelled context.
//
// Run returns once every dispatched task has finished. Tasks writing to
// distinct elements of shared slices need no further synchronization: the
// pool's WaitGroup establishes the happens-before edge to the caller.
func Run(ctx context.Context, n, workers int, failFast bool, errs []error, work func(ctx context.Context, i int) error) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := safeCall(poolCtx, i, work); err != nil {
					if errs != nil {
						errs[i] = err
					}
					if failFast {
						cancel()
					}
				}
			}
		}()
	}
	sent := 0
	for sent < n && ctx.Err() == nil {
		select {
		case idx <- sent:
			sent++
		case <-ctx.Done():
		}
	}
	close(idx)
	if errs != nil {
		for i := sent; i < n; i++ {
			errs[i] = ctx.Err()
		}
	}
	wg.Wait()
}

// safeCall invokes one task, recovering a panic into a *PanicError carrying
// the stack.
func safeCall(ctx context.Context, i int, work func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return work(ctx, i)
}

// FirstError returns the first non-nil error in errs, preserving index order
// (not completion order), or nil when every task succeeded.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
