package lattice

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestIdentityLattice(t *testing.T) {
	// D = I (matrix multiplication): the lattice is all of Z^3, det 1,
	// so independent partitioning yields a single block (the paper's
	// motivating observation in §I).
	l := FromVectors(3, vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
	if !l.FullRank() {
		t.Fatal("identity lattice should be full rank")
	}
	if l.Det() != 1 {
		t.Fatalf("det = %d, want 1", l.Det())
	}
	if !l.Contains(vec.NewInt(5, -3, 7)) {
		t.Fatal("Z^3 lattice must contain every integer vector")
	}
}

func TestMatVecLattice(t *testing.T) {
	// D = {(1,0),(0,1)} (matrix-vector multiplication, loop L5): det 1,
	// single independent block — those methods serialize the loop.
	l := FromVectors(2, vec.NewInt(1, 0), vec.NewInt(0, 1))
	if l.Det() != 1 {
		t.Fatalf("det = %d, want 1", l.Det())
	}
}

func TestSparseLatticeCosets(t *testing.T) {
	// D = {(2,0),(0,3)}: 6 cosets => 6 independent blocks.
	l := FromVectors(2, vec.NewInt(2, 0), vec.NewInt(0, 3))
	if l.Det() != 6 {
		t.Fatalf("det = %d, want 6", l.Det())
	}
	seen := map[string]bool{}
	for x := int64(0); x < 6; x++ {
		for y := int64(0); y < 6; y++ {
			seen[l.CosetKey(vec.NewInt(x, y))] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("distinct coset keys = %d, want 6", len(seen))
	}
}

func TestCosetEquivalence(t *testing.T) {
	l := FromVectors(2, vec.NewInt(2, 1), vec.NewInt(0, 3))
	// det = 6.
	if l.Det() != 6 {
		t.Fatalf("det = %d, want 6", l.Det())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		v := vec.NewInt(rng.Int63n(41)-20, rng.Int63n(41)-20)
		// Same coset after adding a random lattice element.
		w := v.AddScaled(rng.Int63n(9)-4, vec.NewInt(2, 1)).
			AddScaled(rng.Int63n(9)-4, vec.NewInt(0, 3))
		if l.CosetKey(v) != l.CosetKey(w) {
			t.Fatalf("coset key differs for %v and %v", v, w)
		}
	}
}

func TestCosetSeparation(t *testing.T) {
	l := FromVectors(2, vec.NewInt(2, 1), vec.NewInt(0, 3))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		v := vec.NewInt(rng.Int63n(21)-10, rng.Int63n(21)-10)
		w := vec.NewInt(rng.Int63n(21)-10, rng.Int63n(21)-10)
		sameCoset := l.Contains(v.Sub(w))
		if (l.CosetKey(v) == l.CosetKey(w)) != sameCoset {
			t.Fatalf("coset key equality disagrees with membership for %v, %v", v, w)
		}
	}
}

func TestContains(t *testing.T) {
	l := FromVectors(2, vec.NewInt(2, 0), vec.NewInt(1, 2))
	cases := []struct {
		v    vec.Int
		want bool
	}{
		{vec.NewInt(0, 0), true},
		{vec.NewInt(2, 0), true},
		{vec.NewInt(1, 2), true},
		{vec.NewInt(3, 2), true},  // (2,0)+(1,2)
		{vec.NewInt(-1, 2), true}, // (1,2)-(2,0)
		{vec.NewInt(1, 0), false},
		{vec.NewInt(0, 1), false},
		{vec.NewInt(1, 1), false},
	}
	for _, c := range cases {
		if got := l.Contains(c.v); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestGeneratorsAlwaysContained(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		dim := rng.Intn(3) + 1
		k := rng.Intn(4)
		gens := make([]vec.Int, k)
		for i := range gens {
			g := make(vec.Int, dim)
			for j := range g {
				g[j] = rng.Int63n(9) - 4
			}
			gens[i] = g
		}
		l := FromVectors(dim, gens...)
		for _, g := range gens {
			if !l.Contains(g) {
				t.Fatalf("trial %d: lattice %v does not contain generator %v", trial, l, g)
			}
			// Random integer combinations of generators are members too.
			comb := make(vec.Int, dim)
			for _, h := range gens {
				comb = comb.AddScaled(rng.Int63n(7)-3, h)
			}
			if !l.Contains(comb) {
				t.Fatalf("trial %d: lattice missing combination %v", trial, comb)
			}
		}
	}
}

func TestRankDeficientLattice(t *testing.T) {
	// Single generator in Z^2: rank 1, no finite coset count.
	l := FromVectors(2, vec.NewInt(1, 1))
	if l.Rank() != 1 || l.FullRank() {
		t.Fatalf("rank = %d", l.Rank())
	}
	if l.Det() != 0 {
		t.Fatalf("det of rank-deficient lattice = %d, want 0", l.Det())
	}
	// Coset keys still separate correctly.
	if l.CosetKey(vec.NewInt(0, 0)) != l.CosetKey(vec.NewInt(3, 3)) {
		t.Error("(0,0) and (3,3) should share a coset")
	}
	if l.CosetKey(vec.NewInt(0, 0)) == l.CosetKey(vec.NewInt(1, 0)) {
		t.Error("(0,0) and (1,0) should be in different cosets")
	}
}

func TestEmptyLattice(t *testing.T) {
	l := FromVectors(2)
	if l.Rank() != 0 {
		t.Fatalf("rank = %d", l.Rank())
	}
	if l.Contains(vec.NewInt(1, 0)) {
		t.Error("trivial lattice contains only zero")
	}
	if !l.Contains(vec.NewInt(0, 0)) {
		t.Error("trivial lattice must contain zero")
	}
	// Every vector is its own coset.
	if l.CosetKey(vec.NewInt(1, 2)) == l.CosetKey(vec.NewInt(1, 3)) {
		t.Error("distinct vectors share coset in trivial lattice")
	}
}

func TestDetMatchesCosetCount(t *testing.T) {
	// Property: for random full-rank 2-D lattices, the number of distinct
	// coset keys over a large box equals |det|.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a := vec.NewInt(rng.Int63n(5)+1, rng.Int63n(5)-2)
		b := vec.NewInt(rng.Int63n(5)-2, rng.Int63n(5)+1)
		l := FromVectors(2, a, b)
		if !l.FullRank() {
			continue
		}
		det := l.Det()
		if det <= 0 {
			t.Fatalf("trial %d: det = %d not positive for full-rank HNF", trial, det)
		}
		seen := map[string]bool{}
		for x := int64(-12); x <= 12; x++ {
			for y := int64(-12); y <= 12; y++ {
				seen[l.CosetKey(vec.NewInt(x, y))] = true
			}
		}
		if int64(len(seen)) != det {
			t.Fatalf("trial %d: %d cosets seen, det %d (lattice %v)", trial, len(seen), det, l)
		}
	}
}

func TestReduceCanonical(t *testing.T) {
	l := FromVectors(2, vec.NewInt(2, 1), vec.NewInt(0, 3))
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		v := vec.NewInt(rng.Int63n(41)-20, rng.Int63n(41)-20)
		r := l.Reduce(v)
		// Reduce is idempotent and preserves the coset.
		if !l.Reduce(r).Equal(r) {
			t.Fatalf("Reduce not idempotent on %v", v)
		}
		if !l.Contains(v.Sub(r)) {
			t.Fatalf("Reduce changed coset of %v", v)
		}
	}
}
