// Package fault describes deterministic fault injection for the
// simulator: node crashes, link failures, and per-message loss, together
// with the retry and checkpoint policies that bound their cost. A
// Schedule is pure data — the simulator (internal/sim) consumes
// it, and the degraded-mode remapper (internal/mapping) consumes the
// static node/link failure sets — so the same schedule replays
// bit-identically for a fixed Seed.
//
// The fault model deliberately stays inside the paper's §IV cost
// accounting: a lost message costs its sender another t_start + k·t_comm
// transmission plus an exponential backoff expressed in t_start units; a
// failed link adds per-word store-and-forward detour cost; a crashed
// node's un-checkpointed work is replayed on the takeover node. Every
// fault only ever adds time, so a faulty run's makespan is bounded below
// by the fault-free run (asserted by the simulator's property tests).
package fault

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps every Schedule validation failure, so callers can
// classify a bad fault description (e.g. an HTTP 400) without string
// matching.
var ErrInvalid = errors.New("fault: invalid schedule")

// NodeCrash takes processor Node permanently offline at simulated time T.
// Work the node has not checkpointed by T is lost and must be replayed by
// the takeover node.
type NodeCrash struct {
	Node int
	T    float64
}

// LinkFailure takes the (undirected) physical link between nodes A and B
// offline at simulated time T. Messages injected at or after T that would
// cross the link pay a store-and-forward detour instead.
type LinkFailure struct {
	A, B int
	T    float64
}

// RetryPolicy bounds the cost of per-message loss: a lost transmission is
// retried after an exponential backoff, and the final attempt always
// delivers, so the policy caps the delay any single message can suffer.
type RetryPolicy struct {
	// MaxAttempts is the total number of transmission attempts per
	// message (the first send plus retries). 0 means the default, 3.
	MaxAttempts int
	// Backoff is the wait before the first retransmission, expressed in
	// t_start units; attempt k waits Backoff·2^(k−1)·t_start. 0 means the
	// default, 1.
	Backoff float64
}

// defaultMaxAttempts and defaultBackoff are the RetryPolicy zero-value
// resolutions.
const (
	defaultMaxAttempts = 3
	defaultBackoff     = 1.0
)

// Checkpoint is the checkpoint/restart cost model: blocks checkpoint at
// hyperplane-step boundaries, so a crash loses only the work since the
// last boundary.
type Checkpoint struct {
	// EverySteps checkpoints after every EverySteps hyperplane steps;
	// 0 disables checkpointing (a crash then loses all work the node has
	// done).
	EverySteps int
	// Cost is the time a processor spends writing one checkpoint (charged
	// only to processors that did work since the previous boundary).
	Cost float64
	// RestartCost is the fixed time the takeover node spends restoring
	// the dead node's last checkpoint before replaying lost work.
	RestartCost float64
}

// Schedule is a complete deterministic fault-injection description. The
// zero value injects nothing and is a strict no-op for the simulator.
type Schedule struct {
	// Seed drives the per-message loss decisions; identical seeds replay
	// identical loss patterns.
	Seed uint64
	// Crashes lists node crashes (at most one per node).
	Crashes []NodeCrash
	// LinkFailures lists physical link failures.
	LinkFailures []LinkFailure
	// LossProb is the probability in [0, 1] that any single message
	// transmission is lost and must be retried.
	LossProb float64
	// Retry bounds the loss retries.
	Retry RetryPolicy
	// Checkpoint is the checkpoint/restart cost model.
	Checkpoint Checkpoint
}

// Empty reports whether the schedule injects nothing at all — no crashes,
// no link failures, no loss, and no checkpoint overhead. The simulator
// treats an empty schedule exactly like a nil one.
func (s *Schedule) Empty() bool {
	if s == nil {
		return true
	}
	return len(s.Crashes) == 0 && len(s.LinkFailures) == 0 &&
		s.LossProb == 0 && s.Checkpoint.EverySteps == 0
}

// MaxAttempts resolves the retry policy's attempt bound.
func (s *Schedule) MaxAttempts() int {
	if s.Retry.MaxAttempts > 0 {
		return s.Retry.MaxAttempts
	}
	return defaultMaxAttempts
}

// BackoffStarts resolves the retry policy's initial backoff, in t_start
// units.
func (s *Schedule) BackoffStarts() float64 {
	if s.Retry.Backoff > 0 {
		return s.Retry.Backoff
	}
	return defaultBackoff
}

// Validate rejects malformed schedules with actionable messages; every
// error wraps ErrInvalid. numProcs > 0 additionally range-checks node
// addresses against the machine; pass 0 when the machine size is not yet
// known.
func (s *Schedule) Validate(numProcs int) error {
	if s == nil {
		return nil
	}
	if s.LossProb < 0 || s.LossProb > 1 {
		return fmt.Errorf("%w: LossProb %v outside [0, 1]", ErrInvalid, s.LossProb)
	}
	if s.Retry.MaxAttempts < 0 {
		return fmt.Errorf("%w: negative Retry.MaxAttempts %d (0 means the default %d)", ErrInvalid, s.Retry.MaxAttempts, defaultMaxAttempts)
	}
	if s.Retry.Backoff < 0 {
		return fmt.Errorf("%w: negative Retry.Backoff %v (0 means the default %v t_start)", ErrInvalid, s.Retry.Backoff, defaultBackoff)
	}
	ck := s.Checkpoint
	if ck.EverySteps < 0 {
		return fmt.Errorf("%w: negative Checkpoint.EverySteps %d (0 disables checkpointing)", ErrInvalid, ck.EverySteps)
	}
	if ck.Cost < 0 || ck.RestartCost < 0 {
		return fmt.Errorf("%w: negative checkpoint cost (Cost %v, RestartCost %v)", ErrInvalid, ck.Cost, ck.RestartCost)
	}
	if (ck.Cost > 0 || ck.RestartCost > 0) && ck.EverySteps == 0 && len(s.Crashes) == 0 {
		return fmt.Errorf("%w: checkpoint costs set but EverySteps is 0 and no node crashes are scheduled (set EverySteps, or drop the costs)", ErrInvalid)
	}
	seen := make(map[int]bool, len(s.Crashes))
	for _, c := range s.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("%w: crash of negative node %d", ErrInvalid, c.Node)
		}
		if numProcs > 0 && c.Node >= numProcs {
			return fmt.Errorf("%w: crash of node %d on a %d-processor machine", ErrInvalid, c.Node, numProcs)
		}
		if c.T < 0 {
			return fmt.Errorf("%w: crash of node %d at negative time %v", ErrInvalid, c.Node, c.T)
		}
		if seen[c.Node] {
			return fmt.Errorf("%w: node %d crashes twice", ErrInvalid, c.Node)
		}
		seen[c.Node] = true
	}
	if numProcs > 0 && len(seen) >= numProcs {
		return fmt.Errorf("%w: all %d processors crash — no takeover node survives", ErrInvalid, numProcs)
	}
	for _, l := range s.LinkFailures {
		if l.A < 0 || l.B < 0 {
			return fmt.Errorf("%w: link failure with negative endpoint (%d, %d)", ErrInvalid, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("%w: link failure with identical endpoints (%d, %d)", ErrInvalid, l.A, l.B)
		}
		if numProcs > 0 && (l.A >= numProcs || l.B >= numProcs) {
			return fmt.Errorf("%w: link failure (%d, %d) on a %d-processor machine", ErrInvalid, l.A, l.B, numProcs)
		}
		if l.T < 0 {
			return fmt.Errorf("%w: link failure (%d, %d) at negative time %v", ErrInvalid, l.A, l.B, l.T)
		}
	}
	return nil
}

// FailedNodes returns the distinct crashed node ids, in schedule order.
func (s *Schedule) FailedNodes() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s.Crashes))
	for _, c := range s.Crashes {
		out = append(out, c.Node)
	}
	return out
}

// RNG is a splitmix64 generator: tiny, allocation-free, and fully
// deterministic for a fixed seed. The simulator consumes loss decisions
// from one sequential stream in its deterministic send order, so a fixed
// seed reproduces the same loss pattern.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64 pseudo-random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}
