// Fixture for the guardedfield analyzer: access to fields and package vars
// annotated "guarded by <mu>" must happen in functions that lock <mu>.
package fixture

import "sync"

type store struct {
	mu sync.Mutex
	// cache memoizes lookups; guarded by mu.
	cache map[string]int
	hits  int // guarded by mu
}

// newStore initializes guarded fields through composite-literal keys, which
// is construction, not shared access — clean.
func newStore() *store {
	return &store{cache: map[string]int{}}
}

// Get locks the annotated mutex before touching cache and hits — clean.
func (s *store) Get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	return s.cache[k]
}

// Peek reads cache without the lock.
func (s *store) Peek(k string) int {
	return s.cache[k] // want `never locks mu`
}

// Reset writes cache without the lock.
func (s *store) Reset() {
	s.cache = nil // want `never locks mu`
}

// RGet uses a reader lock, which also satisfies the annotation.
type rwstore struct {
	rw    sync.RWMutex
	table map[string]int // guarded by rw
}

func (s *rwstore) RGet(k string) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.table[k]
}

// Package-level state with a package-level guard.
var regMu sync.Mutex

// registry maps unit names to handlers; guarded by regMu.
var registry = map[string]func(){}

// Register locks the guard — clean.
func Register(name string, fn func()) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = fn
}

// Lookup forgets the guard entirely.
func Lookup(name string) func() {
	return registry[name] // want `never locks regMu`
}

// wrapped carries an annotation whose mutex name wraps onto the next
// comment line.
type wrapped struct {
	mu sync.Mutex
	// closed marks the store as draining: no new entries; guarded by
	// mu.
	closed bool
}

func (w *wrapped) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
}

func (w *wrapped) Closed() bool {
	return w.closed // want `never locks mu`
}

// unguarded has no annotation, so lock-free access is fine.
var unguarded = map[string]int{}

func Bump(k string) {
	unguarded[k]++
}
