// Package rat implements exact rational arithmetic on int64 numerators and
// denominators.
//
// Projected points in the partitioning algorithm have rational coordinates
// whose denominators divide Π·Π, and the linear-algebra layer (rank and
// linear independence) needs exact arithmetic: floating point would
// mis-classify linear dependence. Values are kept in
// canonical form (den > 0, gcd(num,den) == 1) so == works on the struct and
// values are usable as map keys.
package rat

import (
	"fmt"
	"strconv"

	"repro/internal/ints"
)

// Rat is an exact rational number num/den in canonical form:
// den > 0 and gcd(|num|, den) == 1. The zero value is 0/1 — a valid zero.
type Rat struct {
	num int64
	den int64
}

// New returns the canonical rational num/den. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	if num == 0 {
		return Rat{0, 1}
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := ints.GCD(num, den)
	return Rat{num / g, den / g}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{normDen(n), 1} }

func normDen(n int64) int64 { return n } // identity; keeps FromInt inlineable

// norm repairs a zero-value Rat (0/0 struct zero becomes 0/1).
func (r Rat) norm() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Use the gcd of denominators to keep intermediates small.
	g := ints.GCD(r.den, s.den)
	ld := s.den / g
	num := r.num*ld + s.num*(r.den/g)
	return New(num, r.den*ld)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns -r.
func (r Rat) Neg() Rat {
	r = r.norm()
	return Rat{-r.num, r.den}
}

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Cross-cancel before multiplying to avoid overflow.
	g1 := ints.GCD(r.num, s.den)
	g2 := ints.GCD(s.num, r.den)
	var n1, n2 int64 = 1, 1
	if g1 != 0 {
		n1 = g1
	}
	if g2 != 0 {
		n2 = g2
	}
	return New((r.num/n1)*(s.num/n2), (r.den/n2)*(s.den/n1))
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat {
	r = r.norm()
	if r.num == 0 {
		panic("rat: inverse of zero")
	}
	return New(r.den, r.num)
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.norm().num == 0 }

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	r = r.norm()
	if r.den == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}
