package serve

import (
	"context"
	"errors"
	"sync"
)

// flightGroup deduplicates concurrent function calls by key: the first
// caller (the leader) runs fn, every concurrent caller with the same key
// blocks and shares the leader's result. This is what turns a thundering
// herd of identical plan requests into exactly one NewPlan computation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	// done is made by the first follower, so a call nobody joins
	// allocates no channel; g.mu guards it until the call ends.
	done chan struct{}
	val  any
	err  error
	// joined counts the followers that waited on the call; g.mu guards
	// it.
	joined int
}

// errLeaderPanicked is what the followers of a leader whose fn panicked
// receive. The panic itself propagates in the leader's goroutine.
var errLeaderPanicked = errors.New("serve: the shared computation panicked")

// do invokes fn once per concurrent set of callers sharing key. The
// returned bool reports whether this caller shared another caller's result
// (true) or ran fn itself (false). A leader also learns how many
// followers joined its call, so it knows whether it alone holds fn's
// result (joined is 0 for a follower).
//
// A follower whose ctx expires while coalesced abandons the wait and gets
// its own context error; the leader's computation is untouched — it
// finishes under the leader's context and every remaining waiter still
// shares the result. (The leader itself ignores ctx here: fn is expected
// to honor the leader's context internally, and cancelling a leader with
// live followers would poison the herd.) If fn panics, the key is still
// released and its waiters woken with errLeaderPanicked, so the next
// caller for the key runs fn afresh; the panic goes on up the leader's
// stack.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool, joined int) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		c.joined++
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		select {
		case <-done:
			return c.val, c.err, true, 0
		case <-ctx.Done():
			return nil, ctx.Err(), true, 0
		}
	}
	c := &flightCall{err: errLeaderPanicked}
	g.m[key] = c
	g.mu.Unlock()
	// Once the key is gone from m no follower can join, so the count
	// read with it is final.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		joined = c.joined
		done := c.done
		g.mu.Unlock()
		if done != nil {
			close(done)
		}
	}()

	c.val, c.err = fn()
	return c.val, c.err, false, 0
}
