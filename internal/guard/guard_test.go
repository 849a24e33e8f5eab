package guard

import (
	"sync"
	"testing"
	"time"
)

// TestGuardExclusive has goroutines increment guarded counters; under the
// race detector a callback that ran without its lock would be reported.
func TestGuardExclusive(t *testing.T) {
	m := New(0)
	var rw RWMutex[int]
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				m.Do(func(n *int) { *n++ })
				rw.Write(func(n *int) { *n++ })
				rw.Read(func(n *int) { _ = *n })
			}
		}()
	}
	wg.Wait()
	var a, b int
	m.Do(func(n *int) { a = *n })
	rw.Read(func(n *int) { b = *n })
	if a != 8000 || b != 8000 {
		t.Fatalf("counters %d and %d, want 8000", a, b)
	}
}

// TestGuardPanicUnlocks checks that a callback's panic releases the lock.
func TestGuardPanicUnlocks(t *testing.T) {
	m := NewRW(1)
	func() {
		defer func() { _ = recover() }()
		m.Write(func(*int) { panic("callback") })
	}()
	m.Write(func(n *int) { *n++ })
	m.Read(func(n *int) {
		if *n != 2 {
			t.Fatalf("value %d, want 2", *n)
		}
	})
}

// TestGuardZeroValue checks that the zero Mutex and RWMutex guard T's zero
// value and need no constructor.
func TestGuardZeroValue(t *testing.T) {
	var m Mutex[[]int]
	m.Do(func(s *[]int) {
		if *s != nil {
			t.Fatalf("zero Mutex guards %v, want nil", *s)
		}
		*s = append(*s, 1)
	})
	m.Do(func(s *[]int) {
		if len(*s) != 1 {
			t.Fatalf("Mutex lost a write: %v", *s)
		}
	})
	var rw RWMutex[map[string]int]
	rw.Read(func(m *map[string]int) {
		if *m != nil {
			t.Fatalf("zero RWMutex guards %v, want nil", *m)
		}
	})
	rw.Write(func(m *map[string]int) { *m = map[string]int{"a": 1} })
	rw.Read(func(m *map[string]int) {
		if (*m)["a"] != 1 {
			t.Fatalf("RWMutex lost a write: %v", *m)
		}
	})
}

// TestRWMutexReadersShare checks that Read takes the shared lock: a
// reader that waits inside its callback for a second reader's callback to
// run would deadlock under an exclusive lock.
func TestRWMutexReadersShare(t *testing.T) {
	m := NewRW(7)
	inside := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Read(func(*int) { <-inside })
	}()
	second := make(chan struct{})
	go func() {
		defer close(second)
		m.Read(func(*int) { close(inside) })
	}()
	select {
	case <-second:
	case <-time.After(10 * time.Second):
		t.Fatal("a second reader could not enter Read beside the first")
	}
	<-done
}
