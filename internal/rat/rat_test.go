package rat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genRat produces small random rationals for property tests so products of
// several values stay far from int64 overflow.
func genRat(r *rand.Rand) Rat {
	num := r.Int63n(2001) - 1000
	den := r.Int63n(1000) + 1
	if r.Intn(2) == 0 {
		den = -den
	}
	return New(num, den)
}

// quickCfg makes testing/quick generate Rats via genRat.
var quickCfg = &quick.Config{
	Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(genRat(r))
		}
	},
}

func TestNewCanonical(t *testing.T) {
	cases := []struct {
		n, d     int64
		wantN    int64
		wantD    int64
		wantText string
	}{
		{1, 2, 1, 2, "1/2"},
		{2, 4, 1, 2, "1/2"},
		{-2, 4, -1, 2, "-1/2"},
		{2, -4, -1, 2, "-1/2"},
		{-2, -4, 1, 2, "1/2"},
		{0, 7, 0, 1, "0"},
		{6, 3, 2, 1, "2"},
		{-9, 3, -3, 1, "-3"},
	}
	for _, c := range cases {
		r := New(c.n, c.d)
		if r.num != c.wantN || r.den != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.n, c.d, r.num, r.den, c.wantN, c.wantD)
		}
		if r.String() != c.wantText {
			t.Errorf("New(%d,%d).String() = %q, want %q", c.n, c.d, r.String(), c.wantText)
		}
	}
}

func TestZeroValueIsZero(t *testing.T) {
	var r Rat // struct zero value, den==0 internally
	if !r.IsZero() || r.String() != "0" || r.Add(FromInt(1)) != FromInt(1) {
		t.Fatal("zero-value Rat does not behave as 0")
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmeticBasics(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got := half.Add(third); got != New(5, 6) {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := half.Sub(third); got != New(1, 6) {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := half.Mul(third); got != New(1, 6) {
		t.Errorf("1/2*1/3 = %v", got)
	}
	if got := half.Neg(); got != New(-1, 2) {
		t.Errorf("-1/2 = %v", got)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	New(0, 1).Inv()
}

func TestFieldAxioms(t *testing.T) {
	add := func(a, b Rat) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(add, quickCfg); err != nil {
		t.Error("add commutativity:", err)
	}
	mul := func(a, b Rat) bool { return a.Mul(b) == b.Mul(a) }
	if err := quick.Check(mul, quickCfg); err != nil {
		t.Error("mul commutativity:", err)
	}
	assoc := func(a, b, c Rat) bool {
		return a.Add(b).Add(c) == a.Add(b.Add(c))
	}
	if err := quick.Check(assoc, quickCfg); err != nil {
		t.Error("add associativity:", err)
	}
	distrib := func(a, b, c Rat) bool {
		return a.Mul(b.Add(c)) == a.Mul(b).Add(a.Mul(c))
	}
	if err := quick.Check(distrib, quickCfg); err != nil {
		t.Error("distributivity:", err)
	}
	inverse := func(a Rat) bool {
		if a.IsZero() {
			return true
		}
		return a.Mul(a.Inv()) == FromInt(1) && a.Add(a.Neg()).IsZero()
	}
	if err := quick.Check(inverse, quickCfg); err != nil {
		t.Error("inverses:", err)
	}
}

func TestCanonicalFormInvariant(t *testing.T) {
	f := func(a, b Rat) bool {
		for _, v := range []Rat{a.Add(b), a.Sub(b), a.Mul(b)} {
			if v.den <= 0 {
				return false
			}
			if v.num == 0 && v.den != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestMapKeyUsability(t *testing.T) {
	m := map[Rat]int{}
	m[New(1, 2)] = 1
	m[New(2, 4)] = 2 // same canonical value must overwrite
	if len(m) != 1 || m[New(3, 6)] != 2 {
		t.Fatal("canonical Rats are not usable as map keys")
	}
}
