package pool

import (
	"context"
	"sync"
)

// Memo builds each key's value once and keeps the values of the most
// recently used keys, up to its capacity. Values must be pure functions of
// their keys, so a kept value is the one a new build would return.
//
// The first caller for a key builds its value under its own context. A
// caller that arrives while that build runs waits for it, and leaves with
// its own context's error once that context is done; the build goes on. A
// build that returns an error, a cancelled one included, or panics is never
// kept, and each waiter still there looks again, so one of them builds
// anew under its own context. It is safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu   sync.Mutex
	kept *LRU[K, V] // guarded by mu
	// building maps a key whose build runs to a channel closed when that
	// build ends; guarded by mu.
	building map[K]chan struct{}
}

// NewMemo returns an empty memo keeping at most capacity values.
func NewMemo[K comparable, V any](capacity int) *Memo[K, V] {
	return &Memo[K, V]{kept: NewLRU[K, V](capacity), building: map[K]chan struct{}{}}
}

// Get returns key's value: the kept one, marked most recently used, or else
// the one build returns, called on first use with ctx.
func (m *Memo[K, V]) Get(ctx context.Context, key K, build func(context.Context) (V, error)) (V, error) {
	for {
		m.mu.Lock()
		if v, ok := m.kept.Get(key); ok {
			m.mu.Unlock()
			return v, nil
		}
		done, ok := m.building[key]
		if !ok {
			done = make(chan struct{})
			m.building[key] = done
			m.mu.Unlock()
			return m.build(ctx, key, done, build)
		}
		m.mu.Unlock()
		select {
		case <-done: // look again: kept, or dropped and to be built anew
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// build runs key's build, keeping its value on success and releasing the
// waiters whichever way it ends, a panic included.
func (m *Memo[K, V]) build(ctx context.Context, key K, done chan struct{}, build func(context.Context) (V, error)) (v V, err error) {
	ok := false
	defer func() {
		m.mu.Lock()
		delete(m.building, key)
		if ok {
			m.kept.Add(key, v)
		}
		m.mu.Unlock()
		close(done)
	}()
	v, err = build(ctx)
	ok = err == nil
	return v, err
}

// Len reports the number of kept values.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.kept.Len()
}
