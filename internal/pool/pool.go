// Package pool provides the bounded fan-out primitive the sweep and
// experiment drivers parallelize with: run n independent jobs on a worker
// pool sized to the machine, with results written by job index so output
// order is deterministic regardless of scheduling. It also holds Free, the
// bounded free list the planner keeps its working memory in.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Workers returns the default pool size: one worker per logical CPU.
func Workers() int {
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	return 1
}

// Run executes fn(i) for every i in [0, n) on at most workers goroutines
// (Workers() when workers <= 0) and returns when all jobs finish. Jobs are
// handed out in index order; fn must write its result into a caller-owned
// slot for index i (slices indexed by job are race-free by construction).
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Map runs fn over [0, n) on the default pool and collects the results in
// index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(n, 0, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr runs fn over [0, n) on the default pool, collecting results in
// index order; it returns the first (lowest-index) error encountered.
func MapErr[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	Run(n, 0, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Gate is a counting semaphore bounding admission to a heavyweight
// section — the plan-serving daemon uses one to cap concurrent planning
// work. Acquire blocks while the gate is full, honoring the caller's
// context so a request deadline also bounds its queueing time.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n concurrent holders
// (Workers() when n <= 0).
func NewGate(n int) *Gate {
	if n <= 0 {
		n = Workers()
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire takes a slot, blocking until one frees or ctx is done; it
// returns ctx.Err() in the latter case.
func (g *Gate) Acquire(ctx context.Context) error {
	// Fast path: grab a free slot without touching the context.
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is immediately free.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("pool: Gate.Release without a matching Acquire")
	}
}

// InFlight returns the number of currently held slots.
func (g *Gate) InFlight() int { return len(g.slots) }

// Cap returns the gate's admission bound.
func (g *Gate) Cap() int { return cap(g.slots) }
