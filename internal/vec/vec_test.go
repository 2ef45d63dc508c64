package vec

import (
	"math"
	"testing"

	"repro/internal/rat"
)

func TestIntBasics(t *testing.T) {
	v := NewInt(1, 2, 3)
	w := NewInt(4, -5, 6)
	if got := v.Add(w); !got.Equal(NewInt(5, -3, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(NewInt(-3, 7, -3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(-2); !got.Equal(NewInt(-2, -4, -6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.AddScaled(3, w); !got.Equal(NewInt(13, -13, 21)) {
		t.Errorf("AddScaled = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %d", got)
	}
	if !NewInt(0, 0).IsZero() || NewInt(0, 1).IsZero() {
		t.Error("IsZero wrong")
	}
	if NewInt(1).Equal(NewInt(1, 2)) {
		t.Error("length mismatch should not be equal")
	}
}

func TestIntCheckedDot(t *testing.T) {
	if v, ok := NewInt(3, -4).CheckedDot(NewInt(5, 2)); !ok || v != 7 {
		t.Errorf("CheckedDot = %d, %v; want 7, true", v, ok)
	}
	for _, c := range [][2]Int{
		{NewInt(1<<32, 1), NewInt(1<<32, 1)},         // a product overflows
		{NewInt(math.MaxInt64, 1), NewInt(1, 1)},     // the sum overflows
		{NewInt(math.MinInt64, 0), NewInt(-1, 0)},    // MinInt64·(−1)
		{NewInt(1<<31, 1<<31), NewInt(1<<31, 1<<31)}, // Π·Π = 2^63
	} {
		if _, ok := c[0].CheckedDot(c[1]); ok {
			t.Errorf("%v·%v: overflow not reported", c[0], c[1])
		}
	}
}

func TestIntCmpAndLex(t *testing.T) {
	if NewInt(1, 2).Cmp(NewInt(1, 3)) != -1 {
		t.Error("Cmp (1,2)<(1,3) failed")
	}
	if NewInt(2, 0).Cmp(NewInt(1, 9)) != 1 {
		t.Error("Cmp (2,0)>(1,9) failed")
	}
	if NewInt(1, 1).Cmp(NewInt(1, 1)) != 0 {
		t.Error("Cmp equal failed")
	}
	if !NewInt(0, 1, -5).LexPositive() {
		t.Error("(0,1,-5) should be lex positive")
	}
	if NewInt(0, -1, 5).LexPositive() || NewInt(0, 0).LexPositive() {
		t.Error("LexPositive false cases failed")
	}
}

func TestIntKeyUniqueness(t *testing.T) {
	// Keys must not collide for distinct vectors (comma separation matters:
	// (1,23) vs (12,3)).
	a, b := NewInt(1, 23), NewInt(12, 3)
	if a.Key() == b.Key() {
		t.Fatalf("key collision: %q", a.Key())
	}
	if a.Key() != "1,23" {
		t.Errorf("Key = %q", a.Key())
	}
}

func TestIntCloneIndependence(t *testing.T) {
	v := NewInt(1, 2)
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestIntDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInt(1).Add(NewInt(1, 2))
}

func TestContentGCD(t *testing.T) {
	if NewInt(6, -9, 12).ContentGCD() != 3 {
		t.Error("ContentGCD(6,-9,12) != 3")
	}
	if NewInt(0, 0).ContentGCD() != 0 {
		t.Error("ContentGCD(0,0) != 0")
	}
}

func TestStringersAndKeys(t *testing.T) {
	if got := NewInt(1, -2).String(); got != "(1, -2)" {
		t.Errorf("Int.String = %q", got)
	}
	if got := (Rat{rat.New(1, 2), rat.New(-1, 3)}).String(); got != "(1/2, -1/3)" {
		t.Errorf("Rat.String = %q", got)
	}
	if NewInt(-10, 5).Key() != "-10,5" {
		t.Errorf("Int.Key = %q", NewInt(-10, 5).Key())
	}
}

func TestMatConstructorEdges(t *testing.T) {
	if m := MatFromColumns(); m.Rows != 0 || m.Cols != 0 {
		t.Fatal("empty MatFromColumns wrong")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative dims", func() { NewMat(-1, 2) })
	mustPanic("ragged cols", func() { MatFromIntColumns(NewInt(1), NewInt(1, 2)) })
}
