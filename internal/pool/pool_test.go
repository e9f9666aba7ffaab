package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllIndices(t *testing.T) {
	const n = 100
	var count atomic.Int64
	done := make([]bool, n)
	Run(context.Background(), n, 8, false, nil, func(_ context.Context, i int) error {
		count.Add(1)
		done[i] = true
		return nil
	})
	if count.Load() != n {
		t.Fatalf("ran %d tasks, want %d", count.Load(), n)
	}
	for i, d := range done {
		if !d {
			t.Errorf("index %d never ran", i)
		}
	}
}

func TestRunRecordsPerIndexErrors(t *testing.T) {
	const n = 10
	errs := make([]error, n)
	Run(context.Background(), n, 4, false, errs, func(_ context.Context, i int) error {
		if i%3 == 0 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	for i := 0; i < n; i++ {
		if (i%3 == 0) != (errs[i] != nil) {
			t.Errorf("errs[%d] = %v", i, errs[i])
		}
	}
	if FirstError(errs) == nil || FirstError(errs).Error() != "task 0 failed" {
		t.Errorf("FirstError = %v", FirstError(errs))
	}
}

func TestRunRecoversPanics(t *testing.T) {
	errs := make([]error, 3)
	Run(context.Background(), 3, 2, false, errs, func(_ context.Context, i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("errs[1] = %v, want PanicError", errs[1])
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic payload = %v (stack %d bytes)", pe.Value, len(pe.Stack))
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("other tasks must not fail: %v %v", errs[0], errs[2])
	}
}

func TestRunFailFastCancelsPending(t *testing.T) {
	const n = 64
	errs := make([]error, n)
	Run(context.Background(), n, 1, true, errs, func(ctx context.Context, i int) error {
		if i == 0 {
			return errors.New("first fails")
		}
		return ctx.Err() // cancelled once the first failure lands
	})
	if errs[0] == nil {
		t.Fatal("first task should fail")
	}
	// With a single worker the remaining tasks all observe the cancellation.
	for i := 1; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
	}
}

// A context that is already done dispatches nothing: every slot holds the
// context's error, and no task runs to find that out for itself.
func TestRunCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 16
	errs := make([]error, n)
	var ran atomic.Int64
	Run(ctx, n, 4, false, errs, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a cancelled context, want 0", ran.Load())
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// A cancellation mid-run stops dispatch: with one worker, at most the task
// already handed over runs after the one that cancelled, and every later
// slot holds the context's error.
func TestRunStopsDispatchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 16
	errs := make([]error, n)
	var ran atomic.Int64
	Run(ctx, n, 1, false, errs, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if r := ran.Load(); r > 2 {
		t.Errorf("%d tasks ran, want at most 2", r)
	}
	for i := 2; i < n; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
	}
}

func TestRunZeroTasksAndNilContext(t *testing.T) {
	Run(context.Background(), 0, 4, false, nil, func(context.Context, int) error {
		t.Fatal("must not run")
		return nil
	})
	ran := false
	Run(nil, 1, 0, false, nil, func(ctx context.Context, _ int) error { //nolint:staticcheck
		if ctx == nil {
			t.Error("pool must substitute a background context")
		}
		ran = true
		return nil
	})
	if !ran {
		t.Fatal("task did not run")
	}
	if FirstError(nil) != nil {
		t.Fatal("FirstError(nil) must be nil")
	}
}
