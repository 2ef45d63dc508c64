package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
	"repro/internal/vec"
)

func TestMergeFactorCoarsensPartitioning(t *testing.T) {
	ps := matvecProjected(t, 16)
	exact, err := Partition(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Partition(ps, Options{MergeFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if merged.R != 2*exact.R {
		t.Fatalf("merged r = %d, want %d", merged.R, 2*exact.R)
	}
	// Half as many blocks (up to boundary rounding).
	if merged.NumBlocks() >= exact.NumBlocks() {
		t.Fatalf("merged blocks = %d, exact = %d", merged.NumBlocks(), exact.NumBlocks())
	}
	if err := CheckInvariants(merged); err != nil {
		t.Fatal(err)
	}
	// Less interblock communication — the point of coarsening.
	et := BuildTIG(exact).TotalTraffic()
	mt := BuildTIG(merged).TotalTraffic()
	if mt >= et {
		t.Fatalf("merged traffic %d not below exact %d", mt, et)
	}
}

func TestMergeFactorBreaksLemma1(t *testing.T) {
	// With q = 2 a matvec block holds four projection lines; lines at
	// distance 2 contain same-hyperplane points — Theorem 1's distinct-step
	// property no longer holds, which is exactly the documented trade-off.
	ps := matvecProjected(t, 8)
	merged, err := Partition(ps, Options{MergeFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	collision := false
	times := map[int]map[int64]bool{}
	blockOf := merged.BlockOf()
	for vi, x := range ps.Orig.V {
		g := blockOf[vi]
		if times[g] == nil {
			times[g] = map[int64]bool{}
		}
		step := ps.Pi.Dot(x)
		if times[g][step] {
			collision = true
		}
		times[g][step] = true
	}
	if !collision {
		t.Fatal("expected same-step collisions in merged blocks (they motivate the paper's exact r)")
	}
}

func TestMergeFactorOneIsExact(t *testing.T) {
	ps := matmulProjected(t, 4)
	a, err := Partition(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(ps, Options{MergeFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != b.NumBlocks() || a.R != b.R {
		t.Fatalf("merge factor 1 changed the partitioning: %d/%d vs %d/%d",
			a.NumBlocks(), a.R, b.NumBlocks(), b.R)
	}
}

func TestMergeFactorRejectsNegative(t *testing.T) {
	ps := l1Projected(t)
	if _, err := Partition(ps, Options{MergeFactor: -1}); err == nil {
		t.Fatal("negative merge factor accepted")
	}
}

func TestMergeFactorTheorem2StillHolds(t *testing.T) {
	// Lemmas 2 and 3 are about the group lattice geometry, which merging
	// preserves, so Theorem 2's bound survives coarsening.
	for _, q := range []int64{2, 3} {
		ps := matmulProjected(t, 6)
		p, err := Partition(ps, Options{MergeFactor: q})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckTheorem2(p, BuildTIG(p)); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
	}
}

// spanningMerge returns the smallest merge factor whose group size R
// spans the bounding box as the region growing sees it. A member of a
// group at lattice coordinates (c0, c) lies t = c0·R + slot steps of
// d_l^p from its line's origin, seed + Σ c_j·d_j^p. With w the part of
// d_l^p orthogonal to the auxiliary vectors, t = w·(x − seed)/(w·d_l^p)
// for a member x, so |t| never exceeds T = (max w·x − min w·x)/(w·d_l^p)
// over the projected points. Once R > T every member lies in the forward
// (c0 = 0) or the backward (c0 = −1) window of its line, those windows
// hold the same points at every such R, and the region growing takes the
// same steps.
func spanningMerge(p *Partitioning) int64 {
	toRat := func(v vec.Int) []*big.Rat {
		out := make([]*big.Rat, len(v))
		for i, x := range v {
			out[i] = new(big.Rat).SetInt64(x)
		}
		return out
	}
	dot := func(a, b []*big.Rat) *big.Rat {
		s := new(big.Rat)
		for i := range a {
			s.Add(s, new(big.Rat).Mul(a[i], b[i]))
		}
		return s
	}
	// minusProjections subtracts from u its projections on the
	// orthogonal vectors basis.
	minusProjections := func(u []*big.Rat, basis [][]*big.Rat) {
		for _, v := range basis {
			k := new(big.Rat).Quo(dot(u, v), dot(v, v))
			for i := range u {
				u[i].Sub(u[i], new(big.Rat).Mul(k, v[i]))
			}
		}
	}
	var basis [][]*big.Rat
	for _, a := range p.Aux {
		u := toRat(a.Scaled)
		minusProjections(u, basis)
		basis = append(basis, u)
	}
	w := toRat(p.Grouping.Scaled)
	minusProjections(w, basis)
	var lo, hi *big.Rat
	for i := range p.PS.NumPoints() {
		x := p.PS.Point(i)
		d := dot(w, toRat(x))
		if lo == nil || d.Cmp(lo) < 0 {
			lo = d
		}
		if hi == nil || d.Cmp(hi) > 0 {
			hi = d
		}
	}
	span := new(big.Rat).Quo(new(big.Rat).Sub(hi, lo), dot(w, toRat(p.Grouping.Scaled)))
	steps := new(big.Int).Quo(span.Num(), span.Denom()).Int64()
	return steps/p.PS.GroupSizeR() + 1
}

// checkMergePastBox partitions ps at the smallest merge factor whose R
// spans the bounding box and at larger ones up to 2^40, and requires the
// same partitioning at each: equal GroupOf, members, components and
// lattice coordinates, and bases that differ only by the grouping axis's
// R steps, Coords[0]·ΔR·d_l^p.
func checkMergePastBox(t *testing.T, name string, ps *project.Structure, noAux bool) {
	t.Helper()
	exact, err := Partition(ps, Options{NoAux: noAux})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if exact.Grouping == nil {
		return
	}
	qmin := spanningMerge(exact)
	ref, err := Partition(ps, Options{MergeFactor: qmin, NoAux: noAux})
	if err != nil {
		t.Fatalf("%s q=%d: %v", name, qmin, err)
	}
	dl := ref.Grouping.Scaled
	for _, q := range []int64{qmin + 1, 2*qmin + 1, 7*qmin + 3, 1 << 20, 1 << 40} {
		got, err := Partition(ps, Options{MergeFactor: q, NoAux: noAux})
		if err != nil {
			t.Fatalf("%s q=%d: %v", name, q, err)
		}
		if err := CheckInvariants(got); err != nil {
			t.Fatalf("%s q=%d: %v", name, q, err)
		}
		if !slices.Equal(got.GroupOf, ref.GroupOf) || !slices.Equal(got.members, ref.members) ||
			!slices.Equal(got.start, ref.start) || !slices.Equal(got.comp, ref.comp) {
			t.Fatalf("%s: the groups at q=%d differ from those at q=%d", name, q, qmin)
		}
		for g := range got.NumBlocks() {
			c0 := int64(ref.Coords(g)[0])
			want := ref.Base(g).AddScaled(c0*(got.R-ref.R), dl)
			if !slices.Equal(got.Coords(g), ref.Coords(g)) || !got.Base(g).Equal(want) {
				t.Fatalf("%s: group %d at q=%d has base %v coords %v, at q=%d base %v coords %v",
					name, g, q, got.Base(g), got.Coords(g), qmin, ref.Base(g), ref.Coords(g))
			}
		}
	}
}

// TestMergeFactorPastTheBox: once R spans the bounding box of the
// projected points, a larger merge factor changes nothing but R and the
// bases it places. Every built-in kernel and generated nests of every
// shape are checked, with and without auxiliary vectors.
func TestMergeFactorPastTheBox(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, size := range []int64{2, 5, 9} {
			for _, noAux := range []bool{false, true} {
				checkMergePastBox(t, fmt.Sprintf("%s/%d noAux=%v", name, size, noAux), projectKernel(t, name, size, false), noAux)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for trial := 0; checked < 60; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := project.Project(st, c.Pi)
		if err != nil {
			t.Fatal(err)
		}
		for _, noAux := range []bool{false, true} {
			checkMergePastBox(t, fmt.Sprintf("%s noAux=%v", c.Name, noAux), ps, noAux)
		}
		checked++
	}
}
