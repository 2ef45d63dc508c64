package mesh

import "testing"

func TestNewAndBasics(t *testing.T) {
	m := New(2, 4)
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if !m.Valid(0) || !m.Valid(7) || m.Valid(8) || m.Valid(-1) {
		t.Error("Valid wrong")
	}
	r, c := m.Coord(6)
	if r != 1 || c != 2 {
		t.Fatalf("Coord(6) = (%d,%d)", r, c)
	}
	if m.Node(1, 2) != 6 {
		t.Fatalf("Node(1,2) = %d", m.Node(1, 2))
	}
}

func TestDistanceManhattan(t *testing.T) {
	m := New(4, 4)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 3, 3}, {0, 15, 6}, {5, 10, 2}, {0, 12, 3},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteXY(t *testing.T) {
	m := New(4, 4)
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			path := m.Route(src, dst)
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("route %d->%d endpoints wrong", src, dst)
			}
			if len(path)-1 != m.Distance(src, dst) {
				t.Fatalf("route %d->%d length %d != distance %d", src, dst, len(path)-1, m.Distance(src, dst))
			}
			for i := 1; i < len(path); i++ {
				if m.Distance(path[i-1], path[i]) != 1 {
					t.Fatalf("route %d->%d hops over non-link", src, dst)
				}
			}
		}
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(0,1)", func() { New(0, 1) })
	mustPanic("Coord", func() { New(2, 2).Coord(4) })
	mustPanic("Node", func() { New(2, 2).Node(2, 0) })
}
