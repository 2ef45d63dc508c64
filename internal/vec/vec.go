// Package vec provides exact integer vectors, and the rational vectors and
// matrices behind the one piece of linear algebra the partitioning pipeline
// needs exactly: Gaussian elimination for rank and linear independence
// (the paper's β and the choice of auxiliary grouping vectors).
package vec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ints"
	"repro/internal/rat"
)

// Int is an integer vector (a loop index point, a dependence vector, or a
// projected point scaled by s = Π·Π).
type Int []int64

// NewInt copies vals into a fresh Int vector.
func NewInt(vals ...int64) Int {
	v := make(Int, len(vals))
	copy(v, vals)
	return v
}

// Clone returns a copy of v.
func (v Int) Clone() Int {
	w := make(Int, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. Panics on dimension mismatch.
func (v Int) Add(w Int) Int {
	mustSameLen(len(v), len(w))
	out := make(Int, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Int) Sub(w Int) Int {
	mustSameLen(len(v), len(w))
	out := make(Int, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns k*v.
func (v Int) Scale(k int64) Int {
	out := make(Int, len(v))
	for i := range v {
		out[i] = k * v[i]
	}
	return out
}

// AddScaled returns v + k*w without allocating intermediates.
func (v Int) AddScaled(k int64, w Int) Int {
	mustSameLen(len(v), len(w))
	out := make(Int, len(v))
	for i := range v {
		out[i] = v[i] + k*w[i]
	}
	return out
}

// Dot returns the inner product v·w.
func (v Int) Dot(w Int) int64 {
	mustSameLen(len(v), len(w))
	var s int64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// CheckedDot returns v·w and whether every product and partial sum
// stayed within int64.
func (v Int) CheckedDot(w Int) (int64, bool) {
	mustSameLen(len(v), len(w))
	var s int64
	for i := range v {
		p, ok := ints.CheckedMul(v[i], w[i])
		if !ok {
			return 0, false
		}
		if s, ok = ints.CheckedAdd(s, p); !ok {
			return 0, false
		}
	}
	return s, true
}

// IsZero reports whether every component is zero.
func (v Int) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (v Int) Equal(w Int) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Cmp compares v and w lexicographically: -1, 0, or +1.
func (v Int) Cmp(w Int) int {
	mustSameLen(len(v), len(w))
	for i := range v {
		if v[i] < w[i] {
			return -1
		}
		if v[i] > w[i] {
			return 1
		}
	}
	return 0
}

// LexPositive reports whether the first nonzero component of v is positive.
func (v Int) LexPositive() bool {
	for _, x := range v {
		if x != 0 {
			return x > 0
		}
	}
	return false
}

// Key returns a compact canonical string usable as a map key. This is on
// the hot path of structure indexing (called once per vertex lookup for
// non-rectangular nests), so it formats with strconv into a stack buffer.
func (v Int) Key() string {
	buf := make([]byte, 0, 16*len(v))
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, x, 10)
	}
	return string(buf)
}

// String renders v as "(a, b, ...)".
func (v Int) String() string { return string(v.AppendString(nil)) }

// AppendString appends v.String() to b.
func (v Int) AppendString(b []byte) []byte {
	b = append(b, '(')
	for i, x := range v {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ')')
}

// ToRat converts v to a rational vector.
func (v Int) ToRat() Rat {
	out := make(Rat, len(v))
	for i, x := range v {
		out[i] = rat.FromInt(x)
	}
	return out
}

// ContentGCD returns the gcd of all components (0 for the zero vector).
func (v Int) ContentGCD() int64 {
	return ints.GCDAll(v...)
}

// Rat is a rational vector.
type Rat []rat.Rat

// String renders v as "(a, b, ...)".
func (v Rat) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", a, b))
	}
}
