// Package hyperplane implements Lamport's hyperplane method time
// transformations (§II of the paper).
//
// A linear time function Π = (a_1, …, a_n) is valid for a dependence set D
// when Π·d > 0 for every d ∈ D; points on the same hyperplane Π·x = c are
// then independent and can execute simultaneously. The package validates
// candidate time functions, computes schedules (execution step of each
// index point), and searches exhaustively over small integer coefficient
// vectors for the Π that minimizes the number of execution steps, breaking
// ties toward smaller coefficients — the classic optimality criterion for
// the hyperplane method on rectangular index sets.
package hyperplane

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ints"
	"repro/internal/loop"
	"repro/internal/vec"
)

// ErrNoValidPi is returned when no valid time function exists in the
// searched coefficient range.
var ErrNoValidPi = errors.New("hyperplane: no valid time function in search range")

// Valid reports whether Π·d > 0 for every dependence vector.
func Valid(pi vec.Int, deps []vec.Int) bool {
	for _, d := range deps {
		if pi.Dot(d) <= 0 {
			return false
		}
	}
	return true
}

// Check returns a descriptive error when pi is not a valid time function
// for the dependence set. A Π·d that overflows int64 is refused with an
// error wrapping loop.ErrTooLarge rather than judged by its wrapped sign.
func Check(pi vec.Int, deps []vec.Int) error {
	if pi.IsZero() {
		return errors.New("hyperplane: zero time function")
	}
	for _, d := range deps {
		v, ok := pi.CheckedDot(d)
		if !ok {
			return fmt.Errorf("hyperplane: Π%v·d%v overflows int64: %w", pi, d, loop.ErrTooLarge)
		}
		if v <= 0 {
			return fmt.Errorf("hyperplane: Π%v·d%v = %d ≤ 0", pi, d, v)
		}
	}
	return nil
}

// Schedule describes the execution ordering induced by a time function on
// a computational structure.
type Schedule struct {
	Pi vec.Int
	// MinTime and MaxTime are the extreme values of Π·x over the vertex set.
	MinTime, MaxTime int64
}

// Steps returns the number of execution steps (hyperplanes crossed).
func (s Schedule) Steps() int64 { return s.MaxTime - s.MinTime + 1 }

// Time returns the raw time Π·x of an index point.
func (s Schedule) Time(p vec.Int) int64 { return s.Pi.Dot(p) }

// Step returns the zero-based execution step of an index point.
func (s Schedule) Step(p vec.Int) int64 { return s.Pi.Dot(p) - s.MinTime }

// NewSchedule computes the schedule of a structure under pi, after
// validating pi against the structure's dependence set. Π·x is linear, so
// its extremes over an innermost row lie at the row's ends: the schedule
// costs one dot product per row, not one per index point.
func NewSchedule(st *loop.Structure, pi vec.Int) (Schedule, error) {
	if len(pi) != st.Dim() {
		return Schedule{}, fmt.Errorf("hyperplane: Π arity %d, structure dim %d", len(pi), st.Dim())
	}
	if err := Check(pi, st.D); err != nil {
		return Schedule{}, err
	}
	lo, hi, ok := rowTimes(st.Nest, pi)
	if !ok {
		return Schedule{}, errors.New("hyperplane: empty index set")
	}
	return Schedule{Pi: pi.Clone(), MinTime: lo, MaxTime: hi}, nil
}

// rowTimes returns the extremes of Π·x over the nest's index set, read
// off the ends of its innermost rows; ok is false when the set is empty.
func rowTimes(n *loop.Nest, pi vec.Int) (lo, hi int64, ok bool) {
	last := len(pi) - 1
	n.ForEachRow(func(row vec.Int, h int64) bool {
		a := pi.Dot(row)
		b := a + pi[last]*(h-row[last])
		if a > b {
			a, b = b, a
		}
		if !ok {
			lo, hi, ok = a, b, true
		}
		lo, hi = min(lo, a), max(hi, b)
		return true
	})
	return lo, hi, ok
}

// normalizePi divides the coefficients by their content gcd so that, e.g.,
// (2,2) is reported as (1,1).
func normalizePi(pi vec.Int) vec.Int {
	g := pi.ContentGCD()
	if g > 1 {
		out := make(vec.Int, len(pi))
		for i, x := range pi {
			out[i] = x / g
		}
		return out
	}
	return pi.Clone()
}

// FindOptimal searches all coefficient vectors with |a_i| <= bound for the
// valid time function minimizing the schedule length on the structure.
// Ties are broken toward the smaller sum of |a_i|, then lexicographically.
// Typical calls use bound 2 or 3; for the paper's uniform kernels the
// optimum is Π = (1, …, 1).
func FindOptimal(st *loop.Structure, bound int64) (Schedule, error) {
	return FindOptimalCtx(context.Background(), st, bound)
}

// searchCheckEvery is how often (in candidates) FindOptimalCtx polls its
// context.
const searchCheckEvery = 256

// FindOptimalCtx is FindOptimal with cooperative cancellation: the search
// visits (2·bound+1)^n candidates, so it polls ctx every searchCheckEvery
// of them, the first included, and returns ctx's error once it is done.
// Any bound up to math.MaxInt64 is admitted; only the deadline ends a
// search that large.
func FindOptimalCtx(ctx context.Context, st *loop.Structure, bound int64) (Schedule, error) {
	if bound < 1 {
		return Schedule{}, errors.New("hyperplane: bound must be >= 1")
	}
	n := st.Dim()
	var best Schedule
	var bestSteps int64 = -1
	var bestAbsSum int64
	var visited int
	var stop error
	cur := make(vec.Int, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if visited%searchCheckEvery == 0 {
				stop = ctx.Err()
			}
			visited++
			if cur.IsZero() || !Valid(cur, st.D) {
				return
			}
			pi := normalizePi(cur)
			sch, err := NewSchedule(st, pi)
			if err != nil {
				return
			}
			absSum := int64(0)
			for _, a := range pi {
				absSum += ints.Abs(a)
			}
			steps := sch.Steps()
			better := bestSteps < 0 ||
				steps < bestSteps ||
				(steps == bestSteps && absSum < bestAbsSum) ||
				(steps == bestSteps && absSum == bestAbsSum && pi.Cmp(best.Pi) < 0)
			if better {
				best, bestSteps, bestAbsSum = sch, steps, absSum
			}
			return
		}
		// The loop ends at bound itself, so a bound of math.MaxInt64
		// never wraps a.
		for a := -bound; stop == nil; a++ {
			cur[j] = a
			rec(j + 1)
			if a == bound {
				break
			}
		}
		cur[j] = 0
	}
	rec(0)
	if stop != nil {
		return Schedule{}, stop
	}
	if bestSteps < 0 {
		return Schedule{}, ErrNoValidPi
	}
	return best, nil
}

// WavefrontSizes returns, per execution step, the number of index points on
// that hyperplane — the degree of parallelism available at each step.
func WavefrontSizes(st *loop.Structure, sch Schedule) []int64 {
	sizes := make([]int64, sch.Steps())
	st.Points(func(_ int, p vec.Int) bool {
		sizes[sch.Step(p)]++
		return true
	})
	return sizes
}
