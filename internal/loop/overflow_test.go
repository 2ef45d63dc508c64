package loop

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/vec"
)

// TestRectIndexOverflowGuard: adversarial constant bounds whose extent
// product overflows int64 must fail with ErrTooLarge at construction, not
// wrap into bogus strides.
func TestRectIndexOverflowGuard(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []int64
	}{
		{"two huge dims", []int64{0, 0}, []int64{1 << 32, 1 << 32}},
		{"four medium dims", []int64{0, 0, 0, 0}, []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20}},
		{"span overflow", []int64{math.MinInt64 + 1, 0}, []int64{math.MaxInt64 - 1, 1}},
		{"single max span", []int64{math.MinInt64}, []int64{math.MaxInt64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewRect(tc.name, tc.lo, tc.hi)
			deps := make([]int64, len(tc.lo))
			deps[len(deps)-1] = 1
			_, err := NewStructure(n, vec.NewInt(deps...))
			if err == nil {
				t.Fatal("NewStructure accepted an overflowing index space")
			}
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("error %v does not wrap ErrTooLarge", err)
			}
		})
	}
}

// TestRectIndexLargeButRepresentable: a space that is huge but fits int64
// must still pass sizing (enumeration is separately deadline-bounded).
func TestRectIndexSizingBoundary(t *testing.T) {
	n := NewRect("fits", []int64{0, 0}, []int64{1 << 30, 1 << 30})
	r, err := newRectIndex(n)
	if err != nil || r == nil {
		t.Fatalf("representable space rejected: %v", err)
	}
	if r.strides[0] != (1<<30)+1 {
		t.Fatalf("stride[0] = %d, want %d", r.strides[0], (1<<30)+1)
	}
}

// TestRowCountOverflowGuard: a non-rectangular nest of three rows of
// about 2^62 points each counts past int64, so the counted structure is
// refused with ErrTooLarge after three rows, and Size saturates at
// math.MaxInt64 instead of wrapping.
func TestRowCountOverflowGuard(t *testing.T) {
	n := &Nest{
		Name:  "wide-rows",
		Dims:  2,
		Lower: []Affine{Const(0), Const(0)},
		Upper: []Affine{Const(2), {Const: 1 << 62, Coeffs: []int64{1}}},
	}
	if _, err := NewCountedStructureCtx(context.Background(), n, vec.NewInt(0, 1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if got := n.Size(); got != math.MaxInt64 {
		t.Fatalf("Size = %d, want math.MaxInt64", got)
	}
}
