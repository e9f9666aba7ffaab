package cliutil

import (
	"context"
	"errors"
	"flag"
	"syscall"
	"testing"
	"time"

	"tsperr/internal/cell"
	"tsperr/internal/modelcache"
)

func TestContextTimeout(t *testing.T) {
	ctx, cancel := Context(20 * time.Millisecond)
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("positive timeout should set a deadline")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestContextNoTimeout(t *testing.T) {
	ctx, cancel := Context(0)
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero timeout should not set a deadline")
	}
	select {
	case <-ctx.Done():
		t.Fatal("context done before cancel")
	default:
	}
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not release the context")
	}
	// cancel must be safe to call again (it is routinely deferred).
	cancel()
}

func TestContextCancelledBySignal(t *testing.T) {
	ctx, cancel := Context(0)
	defer cancel()
	// The context is registered with NotifyContext, so the signal is
	// intercepted rather than killing the test process.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
}

func TestModelCacheFlags(t *testing.T) {
	// The flags register on the flag set they are given, so this test reads
	// defaults and then flips values via Set rather than re-parsing.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	engine := Engine(fs, false)
	if fs.Lookup("voltage") != nil || fs.Lookup("temp") != nil {
		t.Error("-voltage/-temp registered for a mode that does not read them")
	}
	if got, want := engine().CacheDir(), modelcache.Dir(true, ""); got != want {
		t.Fatalf("default cache dir = %q, want %q", got, want)
	}
	if err := fs.Set("model-cache-dir", "/tmp/mc"); err != nil {
		t.Fatal(err)
	}
	if got := engine().CacheDir(); got != "/tmp/mc" {
		t.Errorf("-model-cache-dir /tmp/mc: cache dir = %q", got)
	}
	if err := fs.Set("model-cache", "false"); err != nil {
		t.Fatal(err)
	}
	if got := engine().CacheDir(); got != "" {
		t.Errorf("-model-cache=false: cache dir = %q, want uncached", got)
	}

	fs = flag.NewFlagSet("cond", flag.ContinueOnError)
	engine = Engine(fs, true)
	if err := fs.Set("voltage", "1.0"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Set("temp", "85"); err != nil {
		t.Fatal(err)
	}
	want := cell.OperatingCondition{VoltageV: 1.0, TempC: 85}
	if got := engine().Options().Cond; !got.Equal(want) {
		t.Errorf("engine condition = %v, want %v", got, want)
	}
}

func TestExitCodesAreDistinct(t *testing.T) {
	// Scripts and CI distinguish usage errors from analysis failures; the
	// constants are wire protocol, not implementation detail.
	if ExitFailure != 1 || ExitUsage != 2 {
		t.Fatalf("exit codes moved: failure=%d usage=%d", ExitFailure, ExitUsage)
	}
}
