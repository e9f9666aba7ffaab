// Package retry provides capped exponential backoff for the scenario retry
// loop (internal/core). The delay schedule is a pure function of the policy
// (Policy.Delay), so tests assert exact schedules without a clock, and every
// wait goes through the context-aware Sleep.
package retry

import (
	"context"
	"errors"
	"math"
	"time"
)

// Policy describes a capped exponential backoff schedule.
type Policy struct {
	// Base is the delay before the first retry; it doubles per attempt.
	// Zero or negative disables delays entirely (every Delay is 0).
	Base time.Duration
	// Cap bounds every delay; the doubling clamps here, as does arithmetic
	// overflow. Zero means uncapped.
	Cap time.Duration
}

// Delay returns the backoff before retry n (1-based).
func (p Policy) Delay(n int) time.Duration {
	if p.Base <= 0 || n < 1 {
		return 0
	}
	d := p.Base
	for i := 1; i < n; i++ {
		d <<= 1
		if d <= 0 { // overflow
			d = time.Duration(math.MaxInt64)
			break
		}
		if p.Cap > 0 && d >= p.Cap {
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	return d
}

// Sleep blocks for d or until ctx is done, whichever comes first, returning
// ctx.Err() when cancelled and nil otherwise. A non-positive d returns after
// the cancellation check alone, so disabled backoff still honors a dead
// context.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn up to attempts times (the first try plus attempts-1 retries),
// sleeping p.Delay(n) after failed attempt n. A context cancellation or
// deadline expiry — whether observed on ctx or wrapped inside fn's error —
// stops the loop immediately; retrying cancelled work only delays shutdown.
// The returned error is fn's last error, joined with the context error when
// the backoff sleep was interrupted.
func Do(ctx context.Context, p Policy, attempts int, fn func(attempt int) error) error {
	for n := 1; ; n++ {
		err := fn(n)
		if err == nil {
			return nil
		}
		if n >= attempts || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if serr := Sleep(ctx, p.Delay(n)); serr != nil {
			return errors.Join(err, serr)
		}
	}
}
