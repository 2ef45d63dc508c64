package ints

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestAbs(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 1}, {-1, 1}, {42, 42}, {-42, 42},
		{math.MaxInt64, math.MaxInt64}, {math.MinInt64 + 1, math.MaxInt64},
	}
	for _, c := range cases {
		if got := Abs(c.in); got != c.want {
			t.Errorf("Abs(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAbsPanicsOnMinInt64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Abs(MinInt64) did not panic")
		}
	}()
	Abs(math.MinInt64)
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {-12, 18, 6},
		{12, -18, 6}, {-12, -18, 6}, {7, 13, 1}, {1024, 768, 256},
		{1, 1, 1}, {17, 17, 17},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDProperties(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := int64(a), int64(b)
		g := GCD(x, y)
		if x == 0 && y == 0 {
			return g == 0
		}
		if g <= 0 {
			return false
		}
		// g divides both, and is symmetric.
		return x%g == 0 && y%g == 0 && GCD(y, x) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 0}, {4, 6, 12}, {-4, 6, 12}, {3, 7, 21}, {8, 8, 8},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCMGCDRelation(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := int64(a), int64(b)
		if x == 0 || y == 0 {
			return LCM(x, y) == 0
		}
		return LCM(x, y)*GCD(x, y) == Abs(x)*Abs(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCDAllLCMAll(t *testing.T) {
	if GCDAll() != 0 {
		t.Error("GCDAll() != 0")
	}
	if GCDAll(12, 18, 30) != 6 {
		t.Error("GCDAll(12,18,30) != 6")
	}
	if GCDAll(4, 6, 1, 8) != 1 {
		t.Error("GCDAll(4,6,1,8) != 1")
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3},
		{6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.fl {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
	}
}

func TestFloorCeilDivProperties(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		x, y := int64(a), int64(b)
		fl := FloorDiv(x, y)
		// floor(x/y)·y and (floor(x/y)+1)·y bracket x.
		if y > 0 {
			return fl*y <= x && x < (fl+1)*y
		}
		return fl*y >= x && x > (fl+1)*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModIdentity(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b <= 0 {
			return true
		}
		// The remainder left by floor division is in [0, y).
		x, y := int64(a), int64(b)
		m := x - FloorDiv(x, y)*y
		return m >= 0 && m < y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayBijection(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1024; i++ {
		g := Gray(i)
		if seen[g] {
			t.Fatalf("Gray(%d) = %d collides", i, g)
		}
		seen[g] = true
		if GrayInv(g) != i {
			t.Fatalf("GrayInv(Gray(%d)) = %d", i, GrayInv(g))
		}
	}
}

func TestGrayAdjacency(t *testing.T) {
	// The defining property: consecutive codes differ in exactly one bit.
	for i := uint64(0); i < 4096; i++ {
		if d := bits.OnesCount64(Gray(i) ^ Gray(i+1)); d != 1 {
			t.Fatalf("Gray(%d) and Gray(%d) differ in %d bits, want 1", i, i+1, d)
		}
	}
}

func TestGrayInvProperty(t *testing.T) {
	f := func(x uint32) bool {
		return GrayInv(Gray(uint64(x))) == uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPow2AndLog2Ceil(t *testing.T) {
	if Pow2(0) != 1 || Pow2(10) != 1024 {
		t.Fatal("Pow2 basic failure")
	}
	cases := []struct {
		n    int64
		want int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int64{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int64{0, -2, 3, 6, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestCheckedMul(t *testing.T) {
	if v, ok := CheckedMul(1<<31, 1<<31); !ok || v != 1<<62 {
		t.Error("CheckedMul in-range failed")
	}
	if _, ok := CheckedMul(1<<32, 1<<32); ok {
		t.Error("CheckedMul overflow not detected")
	}
	if v, ok := CheckedMul(0, math.MaxInt64); !ok || v != 0 {
		t.Error("CheckedMul zero failed")
	}
	if _, ok := CheckedMul(math.MinInt64, -1); ok {
		t.Error("CheckedMul(MinInt64, -1) overflow not detected")
	}
	if _, ok := CheckedMul(-1, math.MinInt64); ok {
		t.Error("CheckedMul(-1, MinInt64) overflow not detected")
	}
	if v, ok := CheckedMul(math.MinInt64, 1); !ok || v != math.MinInt64 {
		t.Error("CheckedMul(MinInt64, 1) failed")
	}
}

func TestCheckedAdd(t *testing.T) {
	if v, ok := CheckedAdd(1, 2); !ok || v != 3 {
		t.Error("CheckedAdd basic failed")
	}
	if _, ok := CheckedAdd(math.MaxInt64, 1); ok {
		t.Error("CheckedAdd overflow not detected")
	}
	if _, ok := CheckedAdd(math.MinInt64, -1); ok {
		t.Error("CheckedAdd underflow not detected")
	}
}

func TestSumRange(t *testing.T) {
	cases := []struct{ l, u, want int64 }{
		{1, 10, 55}, {5, 5, 5}, {6, 5, 0}, {-3, 3, 0},
		// The Table I loads: l..1024 sums (×2 gives the t_calc coefficients).
		{513, 1024, 393472}, {897, 1024, 122944}, {993, 1024, 32272},
		{1017, 1024, 8164}, {1023, 1024, 2047},
	}
	for _, c := range cases {
		if got := SumRange(c.l, c.u); got != c.want {
			t.Errorf("SumRange(%d,%d) = %d, want %d", c.l, c.u, got, c.want)
		}
	}
}
