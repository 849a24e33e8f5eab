// Package guard holds the library's shared mutable state behind its locks:
// a Mutex[T] or RWMutex[T] owns a value of type T that only its accessor's
// callback reaches, with the lock held for exactly the callback. An access
// without the lock cannot be written, so no annotation or analyzer has to
// police one. Everything a run touches besides the guarded values is its
// own — parallel workers fill per-task slots that the driver merges after
// the join, with no lock at all.
//
// Lock order. No function or accessor callback takes a second lock while
// it holds one: TestLockNesting (in the root package) checks every
// non-test file syntactically. These orders go through calls, which that
// check cannot see; no lock is ever taken in the reverse order, and only
// the race suite exercises them (it reports a deadlock only when a test
// hits one):
//
//   - a batch lane's product tables (core/product.go) → a member engine's
//     plan (its sync.OnceValue), tables and the run's RunStats, on a
//     StepCache miss of the product that misses the member's cache too;
//   - an engine's plan → its tables, once, when the analysis interns s*;
//   - a database's subtree index (storage.DB.Index) → a block-cache slot,
//     when BuildIndex scans a compressed database;
//   - a versioned store's writer → its state (vstore), when a patch or
//     compaction pins, serialises and publishes a version.
package guard

import "sync"

// Mutex guards a value of type T. The zero value guards T's zero value.
type Mutex[T any] struct {
	mu sync.Mutex
	v  T
}

// New returns a Mutex guarding v, which the caller built and no longer
// touches.
func New[T any](v T) *Mutex[T] { return &Mutex[T]{v: v} }

// Do calls f with the guarded value under the lock. f must not keep the
// pointer past its return.
func (m *Mutex[T]) Do(f func(*T)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.v)
}

// RWMutex guards a value of type T that many readers share. The zero
// value guards T's zero value.
type RWMutex[T any] struct {
	mu sync.RWMutex
	v  T
}

// NewRW returns an RWMutex guarding v, which the caller built and no
// longer touches.
func NewRW[T any](v T) *RWMutex[T] { return &RWMutex[T]{v: v} }

// Read calls f with the guarded value under the read lock: f may run
// beside other readers and must not modify the value or keep the pointer.
func (m *RWMutex[T]) Read(f func(*T)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f(&m.v)
}

// Write calls f with the guarded value under the write lock. f must not
// keep the pointer past its return.
func (m *RWMutex[T]) Write(f func(*T)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.v)
}
