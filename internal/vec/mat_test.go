package vec

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

func TestRankBasics(t *testing.T) {
	cases := []struct {
		name string
		cols []Int
		want int
	}{
		{"identity3", []Int{NewInt(1, 0, 0), NewInt(0, 1, 0), NewInt(0, 0, 1)}, 3},
		{"dup", []Int{NewInt(1, 2), NewInt(2, 4)}, 1},
		{"zero", []Int{NewInt(0, 0, 0)}, 0},
		{"two-of-three", []Int{NewInt(1, 0, 1), NewInt(0, 1, 1), NewInt(1, 1, 2)}, 2},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		if got := RankOfIntColumns(c.cols...); got != c.want {
			t.Errorf("%s: rank = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRankPaperProjectedMatMul(t *testing.T) {
	// The paper computes rank(mat(D^p)) = 2 for matmul projected with
	// Π=(1,1,1) (§III Example 2). Projected vectors scaled by 3:
	cols := []Int{
		NewInt(-1, 2, -1), // 3*d_A^p
		NewInt(2, -1, -1), // 3*d_B^p
		NewInt(-1, -1, 2), // 3*d_C^p
	}
	if got := RankOfIntColumns(cols...); got != 2 {
		t.Fatalf("rank(mat(D^p)) = %d, want 2", got)
	}
}

func TestLinearlyIndependent(t *testing.T) {
	a := NewInt(1, 0).ToRat()
	b := NewInt(0, 1).ToRat()
	c := NewInt(1, 1).ToRat() // a + b
	if !LinearlyIndependent(a, b) {
		t.Error("a,b should be independent")
	}
	if LinearlyIndependent(a, b, c) {
		t.Error("a,b,a+b should be dependent")
	}
	if !LinearlyIndependent() {
		t.Error("empty set is independent")
	}
}

func TestRankInvariantUnderColumnOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(3) + 2
		k := rng.Intn(3) + 1
		cols := make([]Int, k)
		for i := range cols {
			c := make(Int, n)
			for j := range c {
				c[j] = rng.Int63n(9) - 4
			}
			cols[i] = c
		}
		r := RankOfIntColumns(cols...)
		// Adding a linear combination of existing columns keeps rank equal.
		comb := make(Int, n)
		for _, c := range cols {
			comb = comb.AddScaled(rng.Int63n(5)-2, c)
		}
		if got := RankOfIntColumns(append(append([]Int{}, cols...), comb)...); got != r {
			t.Fatalf("trial %d: rank changed %d -> %d after adding combination", trial, r, got)
		}
	}
}

func TestMatAccessorsAndString(t *testing.T) {
	m := MatFromIntColumns(NewInt(1, 0), NewInt(0, 1))
	if m.At(0, 0) != rat.FromInt(1) || !m.At(0, 1).IsZero() {
		t.Fatal("identity columns wrong")
	}
	m.Set(0, 1, rat.New(1, 2))
	if m.At(0, 1) != rat.New(1, 2) {
		t.Fatalf("At after Set = %v", m.At(0, 1))
	}
	if m.String() != "[1 1/2]\n[0 1]" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestMatOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMat(2, 2).At(2, 0)
}
