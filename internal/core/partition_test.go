package core

import (
	"testing"

	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

func projected(t *testing.T, name string, lo, hi []int64, pi vec.Int, deps ...vec.Int) *project.Structure {
	t.Helper()
	n := loop.NewRect(name, lo, hi)
	st, err := loop.NewStructure(n, deps...)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, pi)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func l1Projected(t *testing.T) *project.Structure {
	return projected(t, "L1", []int64{0, 0}, []int64{3, 3}, vec.NewInt(1, 1),
		vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1))
}

func matmulProjected(t *testing.T, sz int64) *project.Structure {
	return projected(t, "matmul", []int64{0, 0, 0}, []int64{sz - 1, sz - 1, sz - 1}, vec.NewInt(1, 1, 1),
		vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
}

func matvecProjected(t *testing.T, m int64) *project.Structure {
	return projected(t, "matvec", []int64{1, 1}, []int64{m, m}, vec.NewInt(1, 1),
		vec.NewInt(0, 1), vec.NewInt(1, 0))
}

func TestL1PartitioningFig3(t *testing.T) {
	// Fig. 3(b): loop L1 partitions into 4 groups of (up to) 2 projected
	// points; 33 dependence arcs total, 12 interblock.
	p, err := Partition(l1Projected(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.R != 2 {
		t.Fatalf("r = %d, want 2", p.R)
	}
	if p.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", p.NumBlocks())
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	s := BuildTIG(p).EdgeStats()
	if s.Total != 33 {
		t.Fatalf("total deps = %d, want 33", s.Total)
	}
	if s.InterBlock != 12 {
		t.Fatalf("interblock deps = %d, want 12", s.InterBlock)
	}
}

func TestL1Beta(t *testing.T) {
	// For L1, D^p = {(-1/2,1/2), (0,0), (1/2,-1/2)}: rank 1.
	p, err := Partition(l1Projected(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Beta != 1 {
		t.Fatalf("β = %d, want 1", p.Beta)
	}
	if len(p.Aux) != 0 {
		t.Fatalf("aux vectors = %d, want 0", len(p.Aux))
	}
}

func TestMatMulPartitioningFig6(t *testing.T) {
	// Example 2 / Fig. 6: 4×4×4 matmul with Π=(1,1,1) partitions into 17
	// groups of (up to) 3 projected points; β = 2, one auxiliary vector.
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.R != 3 {
		t.Fatalf("r = %d, want 3", p.R)
	}
	if p.Beta != 2 {
		t.Fatalf("β = %d, want 2", p.Beta)
	}
	if len(p.Aux) != 1 {
		t.Fatalf("aux vectors = %d, want 1", len(p.Aux))
	}
	if p.NumBlocks() != 17 {
		t.Fatalf("blocks = %d, want 17", p.NumBlocks())
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTheorem2(t *testing.T) {
	// Theorem 2: every group sends to at most 2m − β = 2·3 − 2 = 4 groups,
	// and the bound is tight for the interior groups (the paper shows G10
	// sending to exactly 4).
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tig := BuildTIG(p)
	if Theorem2Bound(p) != 4 {
		t.Fatalf("2m-β = %d, want 4", Theorem2Bound(p))
	}
	if err := CheckTheorem2(p, tig); err != nil {
		t.Fatal(err)
	}
	if tig.MaxOutDegree() != 4 {
		t.Fatalf("max out-degree = %d, want 4 (tight)", tig.MaxOutDegree())
	}
}

func TestMatVecPartitioning(t *testing.T) {
	// §IV: matvec partitions into M groups, each with two projection lines
	// (two projected points), except at the boundary.
	const m = 8
	p, err := Partition(matvecProjected(t, m), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.R != 2 {
		t.Fatalf("r = %d, want 2", p.R)
	}
	if p.NumBlocks() != m {
		t.Fatalf("blocks = %d, want %d", p.NumBlocks(), m)
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	// The largest block contains the main diagonal: M + (M-1) points.
	if got := p.MaxBlockSize(); got != 2*m-1 {
		t.Fatalf("max block = %d, want %d", got, 2*m-1)
	}
}

func TestLemma1AcrossKernels(t *testing.T) {
	cases := []*project.Structure{
		l1Projected(t),
		matmulProjected(t, 4),
		matmulProjected(t, 5),
		matvecProjected(t, 6),
	}
	for _, ps := range cases {
		p, err := Partition(ps, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", ps.Orig.Nest.Name, err)
		}
		if err := CheckInvariants(p); err != nil {
			t.Fatalf("%s: %v", ps.Orig.Nest.Name, err)
		}
	}
}

func TestTheorem2AcrossSizesAndChoices(t *testing.T) {
	for sz := int64(3); sz <= 6; sz++ {
		ps := matmulProjected(t, sz)
		for gi := 0; gi < len(ps.NonzeroDeps()); gi++ {
			p, err := Partition(ps, Options{GroupingChoice: gi + 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(p); err != nil {
				t.Fatalf("sz=%d gi=%d: %v", sz, gi, err)
			}
			if err := CheckTheorem2(p, BuildTIG(p)); err != nil {
				t.Fatalf("sz=%d gi=%d: %v", sz, gi, err)
			}
		}
	}
}

func TestGroupCoordsConsistent(t *testing.T) {
	// Base vertices must equal seedBase + coords[0]·r·d_l + Σ coords[j]·aux_j
	// within each component.
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Locate each component's seed (coords all zero).
	seeds := map[int]vec.Int{}
	for _, g := range p.Groups {
		allZero := true
		for _, c := range g.Coords {
			if c != 0 {
				allZero = false
			}
		}
		if allZero {
			seeds[g.Component] = g.Base
		}
	}
	for _, g := range p.Groups {
		seed, ok := seeds[g.Component]
		if !ok {
			t.Fatalf("component %d has no seed group", g.Component)
		}
		want := seed.AddScaled(g.Coords[0]*p.R, p.Grouping.Scaled)
		for j, a := range p.Aux {
			want = want.AddScaled(g.Coords[1+j], a.Scaled)
		}
		if !g.Base.Equal(want) {
			t.Fatalf("group %d base %v, lattice position %v (coords %v)", g.ID, g.Base, want, g.Coords)
		}
	}
}

func TestSeedBaseReproducesPaperExample2Grouping(t *testing.T) {
	// Step 3 of Example 2 picks (−1,−1,2) as the base vertex of G1, so the
	// group is {(−1,−1,2), (−4/3,−1/3,5/3), (−5/3,1/3,4/3)} — scaled by
	// s = 3: {(−3,−3,6), (−4,−1,5), (−5,1,4)}. Pinning the seed reproduces
	// the paper's exact grouping instance.
	ps := matmulProjected(t, 4)
	p, err := Partition(ps, Options{SeedBase: vec.NewInt(-3, -3, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 17 {
		t.Fatalf("blocks = %d, want 17", p.NumBlocks())
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	// Locate the group based at (−3,−3,6) and check its members.
	want := []vec.Int{vec.NewInt(-3, -3, 6), vec.NewInt(-4, -1, 5), vec.NewInt(-5, 1, 4)}
	found := false
	for _, g := range p.Groups {
		if !g.Base.Equal(want[0]) {
			continue
		}
		found = true
		if len(g.Members) != 3 {
			t.Fatalf("paper's G1 has 3 members, got %d", len(g.Members))
		}
		for i, m := range g.Members {
			if !ps.Points[m].Equal(want[i]) {
				t.Fatalf("member %d = %v, want %v", i, ps.Points[m], want[i])
			}
		}
	}
	if !found {
		t.Fatal("the paper's G1 base vertex is not a group base")
	}
	// The out-degree structure of Fig. 7 still holds.
	tig := BuildTIG(p)
	if tig.MaxOutDegree() != 4 {
		t.Fatalf("max out-degree = %d, want 4", tig.MaxOutDegree())
	}
}

func TestSeedBaseOutsideStructureIsHarmless(t *testing.T) {
	ps := l1Projected(t)
	p, err := Partition(ps, Options{SeedBase: vec.NewInt(99, -99)})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", p.NumBlocks())
	}
}

func TestSeedBaseWrongArityIsAnError(t *testing.T) {
	if _, err := Partition(l1Projected(t), Options{SeedBase: vec.NewInt(1)}); err == nil {
		t.Fatal("a 1-D seed base for a 2-D structure was accepted")
	}
}

func TestPartitionAllDepsParallelToPi(t *testing.T) {
	// Single dependence (1,1) with Π=(1,1): every projected point is its
	// own group and no interblock communication exists.
	ps := projected(t, "diag", []int64{0, 0}, []int64{3, 3}, vec.NewInt(1, 1), vec.NewInt(1, 1))
	p, err := Partition(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Grouping != nil {
		t.Fatal("no grouping vector expected")
	}
	if p.NumBlocks() != len(ps.Points) {
		t.Fatalf("blocks = %d, want %d", p.NumBlocks(), len(ps.Points))
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	tig := BuildTIG(p)
	if tig.TotalTraffic() != 0 {
		t.Fatalf("traffic = %d, want 0", tig.TotalTraffic())
	}
}

func TestPartitionSinglePoint(t *testing.T) {
	ps := projected(t, "one", []int64{0, 0}, []int64{0, 0}, vec.NewInt(1, 1), vec.NewInt(1, 0))
	p, err := Partition(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 1 || p.BlockSize(0) != 1 {
		t.Fatalf("blocks=%d size=%d", p.NumBlocks(), p.BlockSize(0))
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionNoAuxAblation(t *testing.T) {
	// Without auxiliary vectors grouping still succeeds (every line seeds
	// its own component) and invariants hold; traffic may be equal or
	// higher than the default.
	ps := matmulProjected(t, 4)
	pDefault, err := Partition(ps, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pNoAux, err := Partition(ps, Options{NoAux: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(pNoAux); err != nil {
		t.Fatal(err)
	}
	td := BuildTIG(pDefault).TotalTraffic()
	tn := BuildTIG(pNoAux).TotalTraffic()
	if tn < td {
		t.Fatalf("no-aux traffic %d < default %d: aux vectors should never hurt", tn, td)
	}
}

func TestPartitionBadGroupingChoice(t *testing.T) {
	ps := l1Projected(t)
	if _, err := Partition(ps, Options{GroupingChoice: 99}); err == nil {
		t.Fatal("out-of-range grouping index accepted")
	}
}

func TestBlockPointsOrdered(t *testing.T) {
	p, err := Partition(matvecProjected(t, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < p.NumBlocks(); g++ {
		pts := p.BlockPoints(g)
		if len(pts) != p.BlockSize(g) {
			t.Fatalf("block %d: %d points, size %d", g, len(pts), p.BlockSize(g))
		}
		for i := 1; i < len(pts); i++ {
			if p.PS.Pi.Dot(pts[i-1]) >= p.PS.Pi.Dot(pts[i]) {
				t.Fatalf("block %d not strictly time-ordered", g)
			}
		}
	}
}

func TestBlockOfPoint(t *testing.T) {
	p, err := Partition(l1Projected(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockOfPoint(vec.NewInt(9, 9)) != -1 {
		t.Error("outside point should return -1")
	}
	// Points on the same projection line share a block.
	b1 := p.BlockOfPoint(vec.NewInt(0, 0))
	b2 := p.BlockOfPoint(vec.NewInt(3, 3))
	if b1 < 0 || b1 != b2 {
		t.Errorf("diagonal points in blocks %d, %d", b1, b2)
	}
}
