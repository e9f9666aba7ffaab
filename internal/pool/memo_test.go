package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing after insert")
	}
	c.Add("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got != 1 {
		t.Error("a should have survived (recently used)")
	}
	if got, ok := c.Get("d"); !ok || got != 4 {
		t.Error("d should be present")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	// Refreshing an existing key replaces the value without growing.
	c.Add("a", 10)
	if got, _ := c.Get("a"); got != 10 {
		t.Error("refresh did not replace the value")
	}
	if c.Len() != 2 {
		t.Errorf("len after refresh = %d, want 2", c.Len())
	}
}

// errProbe is the failure of a probe build: a Get with it reports whether
// a key's value is kept without keeping anything new.
var errProbe = errors.New("probe")

func probe(context.Context) (int, error) { return 0, errProbe }

func TestMemoConcurrentCallersShareOneBuild(t *testing.T) {
	m := NewMemo[string, int](4)
	release := make(chan struct{})
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get(context.Background(), "k", func(context.Context) (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
}

// TestMemoWaiterLeavesOnItsOwnContext pins that a caller waiting on a build
// in flight leaves when its own context is done while the build goes on, and
// that the next call gets the value that build kept.
func TestMemoWaiterLeavesOnItsOwnContext(t *testing.T) {
	m := NewMemo[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	builder := make(chan error, 1)
	go func() {
		_, err := m.Get(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		builder <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := m.Get(ctx, "k", func(context.Context) (int, error) {
			return 0, errors.New("the waiter built while a build was in flight")
		})
		waiter <- err
	}()
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter stayed for the build after its context was cancelled")
	}
	close(release)
	if err := <-builder; err != nil {
		t.Fatalf("builder: %v", err)
	}
	if v, err := m.Get(context.Background(), "k", probe); err != nil || v != 7 {
		t.Errorf("after the build: Get = %d, %v; want the kept 7", v, err)
	}
}

// TestMemoCancelledBuildIsRebuiltByAWaiter cancels the builder's context:
// its build ends with the context's error, nothing is kept, and a waiter
// still there builds the value under its own context.
func TestMemoCancelledBuildIsRebuiltByAWaiter(t *testing.T) {
	m := NewMemo[string, int](4)
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	builder := make(chan error, 1)
	go func() {
		_, err := m.Get(ctx, "k", func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		builder <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, err := m.Get(context.Background(), "k", func(ctx context.Context) (int, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 9, nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	cancel()
	if err := <-builder; !errors.Is(err, context.Canceled) {
		t.Errorf("builder err = %v, want context.Canceled", err)
	}
	if v := <-waiter; v != 9 {
		t.Errorf("waiter got %d, want its own build's 9", v)
	}
	if v, err := m.Get(context.Background(), "k", probe); err != nil || v != 9 {
		t.Errorf("Get = %d, %v; want the waiter's kept 9", v, err)
	}
}

func TestMemoFailedBuildIsNotKept(t *testing.T) {
	m := NewMemo[string, int](4)
	boom := errors.New("boom")
	if _, err := m.Get(context.Background(), "k", func(context.Context) (int, error) { return 1, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := m.Get(context.Background(), "k", probe); !errors.Is(err, errProbe) {
		t.Errorf("a failed build was kept: err = %v", err)
	}
	if n := m.Len(); n != 0 {
		t.Errorf("Len = %d after failed builds, want 0", n)
	}
	if v, err := m.Get(context.Background(), "k", func(context.Context) (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Errorf("rebuild after failure: %d, %v", v, err)
	}
}

// TestMemoPanickingBuildReleasesWaiters pins that a build's panic reaches
// its own caller, and that a waiter is released to build the value itself.
func TestMemoPanickingBuildReleasesWaiters(t *testing.T) {
	m := NewMemo[string, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	builder := make(chan any, 1)
	go func() {
		defer func() { builder <- recover() }()
		m.Get(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			panic("build panicked")
		})
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, err := m.Get(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	close(release)
	if r := <-builder; r != "build panicked" {
		t.Errorf("builder recovered %v, want the build's panic", r)
	}
	select {
	case v := <-waiter:
		if v != 5 {
			t.Errorf("waiter got %d, want 5", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a panicking build left its waiter blocked")
	}
}

// TestMemoKeepsRecentlyUsed pins the LRU bound: the memo keeps capacity
// values, a hit refreshes recency, and the least recently used value is the
// one dropped and built again.
func TestMemoKeepsRecentlyUsed(t *testing.T) {
	m := NewMemo[string, int](2)
	builds := map[string]int{}
	get := func(k string) {
		t.Helper()
		if _, err := m.Get(context.Background(), k, func(context.Context) (int, error) {
			builds[k]++
			return builds[k], nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // a is now the most recently used
	get("c") // drops b
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	get("a")
	get("b")
	if builds["a"] != 1 || builds["b"] != 2 || builds["c"] != 1 {
		t.Errorf("builds %v: want a kept, b dropped and rebuilt, c built once", builds)
	}
}
