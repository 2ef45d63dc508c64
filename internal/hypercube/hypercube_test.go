package hypercube

import (
	"math/bits"
	"testing"
)

func TestNewAndValid(t *testing.T) {
	c := New(3)
	if c.N != 8 || c.Dim != 3 {
		t.Fatalf("cube = %+v", c)
	}
	if !c.Valid(0) || !c.Valid(7) || c.Valid(8) || c.Valid(-1) {
		t.Error("Valid wrong")
	}
}

func TestFromProcessors(t *testing.T) {
	cases := []struct{ p, wantDim int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	}
	for _, c := range cases {
		if got := FromProcessors(c.p).Dim; got != c.wantDim {
			t.Errorf("FromProcessors(%d).Dim = %d, want %d", c.p, got, c.wantDim)
		}
	}
}

func TestDistance(t *testing.T) {
	c := New(4)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 15, 4}, {5, 10, 4}, {3, 1, 1},
	}
	for _, cse := range cases {
		if got := c.Distance(cse.a, cse.b); got != cse.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	c := New(4)
	for a := 0; a < c.N; a++ {
		for b := 0; b < c.N; b++ {
			for m := 0; m < c.N; m++ {
				if c.Distance(a, b) > c.Distance(a, m)+c.Distance(m, b) {
					t.Fatalf("triangle inequality fails at %d,%d via %d", a, b, m)
				}
			}
		}
	}
}

func TestRoute(t *testing.T) {
	c := New(4)
	for src := 0; src < c.N; src++ {
		for dst := 0; dst < c.N; dst++ {
			path := c.Route(src, dst)
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("route %d->%d endpoints wrong: %v", src, dst, path)
			}
			if len(path)-1 != c.Distance(src, dst) {
				t.Fatalf("route %d->%d length %d, distance %d", src, dst, len(path)-1, c.Distance(src, dst))
			}
			for i := 1; i < len(path); i++ {
				if bits.OnesCount(uint(path[i-1]^path[i])) != 1 {
					t.Fatalf("route %d->%d uses non-link %d-%d", src, dst, path[i-1], path[i])
				}
			}
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(-1)", func() { New(-1) })
	mustPanic("Distance", func() { New(2).Distance(0, 9) })
	mustPanic("FromProcessors(0)", func() { FromProcessors(0) })
}
