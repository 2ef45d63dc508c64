package pool

import (
	"sync"
	"sync/atomic"
)

// Free is a bounded free list of reusable working memory, safe for
// concurrent use: Get returns a held value, or a new zero one when none
// is held, and Put keeps a value for a later Get. Unlike sync.Pool it
// keeps what it holds through garbage collections and under the race
// detector, so whether a Get reuses memory, and with it the caller's
// allocation count, does not depend on the collector. It never holds more
// values than were in use at once, nor more than its capacity.
type Free[T any] struct {
	mu       sync.Mutex
	held     []*T
	capacity int
}

// NewFree returns an empty free list that keeps at most capacity values.
func NewFree[T any](capacity int) *Free[T] {
	return &Free[T]{capacity: capacity}
}

// Get returns a held value, or a new zero value when none is held.
func (f *Free[T]) Get() *T {
	f.mu.Lock()
	n := len(f.held)
	if n == 0 {
		f.mu.Unlock()
		return new(T)
	}
	x := f.held[n-1]
	f.held[n-1] = nil
	f.held = f.held[:n-1]
	f.mu.Unlock()
	return x
}

// Put keeps x for a later Get, or drops it when the list is full. The
// caller must not use x afterwards.
func (f *Free[T]) Put(x *T) {
	f.mu.Lock()
	if len(f.held) < f.capacity {
		f.held = append(f.held, x)
	}
	f.mu.Unlock()
}

// Clear drops every held value.
func (f *Free[T]) Clear() {
	f.mu.Lock()
	clear(f.held)
	f.held = f.held[:0]
	f.mu.Unlock()
}

// PoisonReleased, when set, makes the holders of recycled result tables
// overwrite them with Poison as they are handed back, so a reader that
// outlives the release reads garbage instead of the next result's
// tables. Tests set it; a release pays one atomic load while it is clear.
var PoisonReleased atomic.Bool

// Poison sets every entry of s to ^0x5a5a5a5a, a negative value that no
// group, edge or node table holds.
func Poison[T ~int32 | ~int64 | ~int](s []T) {
	for i := range s {
		s[i] = ^T(0x5a5a5a5a)
	}
}

// Carve returns the n zeroed entries of *arena past its length and
// extends the length over them, so one arena holds the tables of one
// result and a truncated arena serves the next. An arena too short
// starts over at twice the room carved so far; what was carved stays
// where it is, and the next result fits.
func Carve[T any](arena *[]T, n int) []T {
	used := len(*arena)
	if used+n > cap(*arena) {
		*arena = make([]T, used, 2*(used+n))
	}
	s := (*arena)[used : used+n : used+n]
	*arena = (*arena)[:used+n]
	clear(s)
	return s
}
