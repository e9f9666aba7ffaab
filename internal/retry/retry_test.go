package retry_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"tsperr/internal/retry"
)

func TestDelaySchedule(t *testing.T) {
	p := retry.Policy{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Delay(0); got != 0 {
		t.Errorf("Delay(0) = %v, want 0", got)
	}
}

func TestDelayDisabledAndUncapped(t *testing.T) {
	if d := (retry.Policy{Base: 0}).Delay(3); d != 0 {
		t.Errorf("zero base: Delay = %v, want 0", d)
	}
	if d := (retry.Policy{Base: -time.Second}).Delay(1); d != 0 {
		t.Errorf("negative base: Delay = %v, want 0", d)
	}
	// Uncapped schedules must survive the shift overflowing int64.
	p := retry.Policy{Base: time.Hour}
	if d := p.Delay(80); d <= 0 {
		t.Errorf("overflowed delay = %v, want positive clamp", d)
	}
	// Capped schedules clamp the same overflow to the cap.
	p.Cap = time.Minute
	if d := p.Delay(80); d != time.Minute {
		t.Errorf("capped overflow delay = %v, want 1m", d)
	}
}

func TestSleepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := retry.Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx, zero delay: err = %v, want Canceled", err)
	}
	if err := retry.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx: err = %v, want Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- retry.Sleep(ctx2, time.Hour) }()
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-sleep cancel: err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}

	if err := retry.Sleep(context.Background(), -time.Second); err != nil {
		t.Errorf("negative delay: err = %v, want nil", err)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := retry.Do(context.Background(), retry.Policy{}, 5, func(n int) error {
		calls++
		if n != calls {
			t.Fatalf("attempt number %d, want %d", n, calls)
		}
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want success on attempt 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := retry.Do(context.Background(), retry.Policy{}, 3, func(int) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want boom after 3 attempts", err, calls)
	}
}

func TestDoContextErrorIsTerminal(t *testing.T) {
	calls := 0
	err := retry.Do(context.Background(), retry.Policy{}, 5, func(int) error {
		calls++
		return context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want immediate stop on deadline", err, calls)
	}

	// A wrapped cancellation is just as terminal.
	calls = 0
	wrapped := errors.Join(errors.New("scenario 3 failed"), context.Canceled)
	err = retry.Do(context.Background(), retry.Policy{}, 5, func(int) error {
		calls++
		return wrapped
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want immediate stop on wrapped cancel", err, calls)
	}
}

func TestDoCancelledDuringBackoff(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() {
		// Let the first attempt fail, then cancel while Do sleeps.
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := retry.Do(ctx, retry.Policy{Base: time.Hour}, 5, func(int) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want boom joined with Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry after cancelled backoff)", calls)
	}
}

func TestDelayOverflowNeverNegative(t *testing.T) {
	p := retry.Policy{Base: time.Duration(math.MaxInt64 / 2)}
	for n := 1; n < 10; n++ {
		if d := p.Delay(n); d < 0 {
			t.Fatalf("Delay(%d) = %v went negative", n, d)
		}
	}
}
