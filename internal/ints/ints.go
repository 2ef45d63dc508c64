// Package ints provides exact integer helpers used throughout the
// partitioning pipeline: GCD/LCM, floor division, Gray codes, and
// overflow-checked arithmetic.
//
// Everything in the combinatorial part of the reproduction is exact
// integer or rational arithmetic; this package is the lowest layer.
package ints

import (
	"fmt"
	"math"
)

// Abs returns the absolute value of x. It panics on math.MinInt64 whose
// absolute value is not representable.
func Abs(x int64) int64 {
	if x == -x && x != 0 {
		panic("ints: Abs overflow on MinInt64")
	}
	if x < 0 {
		return -x
	}
	return x
}

// GCD returns the greatest common divisor of a and b, always non-negative.
// GCD(0, 0) == 0 by convention.
func GCD(a, b int64) int64 {
	a, b = Abs(a), Abs(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GCDAll folds GCD over all values; GCDAll() == 0.
func GCDAll(vals ...int64) int64 {
	var g int64
	for _, v := range vals {
		g = GCD(g, v)
		if g == 1 {
			return 1
		}
	}
	return g
}

// LCM returns the least common multiple of a and b, non-negative.
// LCM(x, 0) == 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return Abs(a/g) * Abs(b)
}

// FloorDiv returns floor(a/b) for b != 0 (rounds toward negative infinity).
func FloorDiv(a, b int64) int64 {
	if b == 0 {
		panic("ints: FloorDiv by zero")
	}
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Gray returns the binary-reflected Gray code of i (i >= 0). Consecutive
// integers have codes one bit apart: the property Algorithm 2 of the paper
// relies on to place neighbouring clusters on adjacent hypercube nodes.
func Gray(i uint64) uint64 {
	return i ^ (i >> 1)
}

// GrayInv inverts Gray: GrayInv(Gray(i)) == i.
func GrayInv(g uint64) uint64 {
	var i uint64
	for ; g != 0; g >>= 1 {
		i ^= g
	}
	return i
}

// Pow2 returns 2^k for 0 <= k < 63.
func Pow2(k int) int64 {
	if k < 0 || k >= 63 {
		panic(fmt.Sprintf("ints: Pow2 exponent %d out of range", k))
	}
	return int64(1) << uint(k)
}

// Log2Ceil returns the smallest k with 2^k >= n, for n >= 1.
func Log2Ceil(n int64) int {
	if n <= 0 {
		panic("ints: Log2Ceil requires positive n")
	}
	k := 0
	for Pow2(k) < n {
		k++
	}
	return k
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int64) bool {
	return n > 0 && n&(n-1) == 0
}

// CheckedMul returns a*b and reports whether the product overflowed int64.
func CheckedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// MinInt64·(−1) wraps to MinInt64, and so does MinInt64/(−1), so the
	// division test alone would pass it.
	if p/b != a || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// CheckedAdd returns a+b and reports whether the sum stayed within int64.
func CheckedAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// CheckedSub returns a−b and reports whether the difference stayed within
// int64.
func CheckedSub(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// SumRange returns the sum of the integers l..u inclusive (0 if l > u).
// Used by the §IV closed-form load formula W = Σ_{i=l}^{M} i.
func SumRange(l, u int64) int64 {
	if l > u {
		return 0
	}
	n := u - l + 1
	return n * (l + u) / 2
}
