package core

import (
	"context"
	"testing"

	"repro/internal/loop"
	"repro/internal/project"
)

// TestLemma1ClashOnCompactStructure: moving a projection line into
// another group makes a partitioning whose blocks run two points in one
// step; CheckInvariants must report the same Lemma-1 error on a compact
// structure (no vertex set) as on an eager one, and neither a clean check
// nor naming a clash builds V.
func TestLemma1ClashOnCompactStructure(t *testing.T) {
	for _, c := range []struct {
		name string
		size int64
	}{{"matmul", 4}, {"triangular", 7}, {"l1", 6}, {"sor2d", 4}} {
		ps := projectKernel(t, c.name, c.size, false)
		cst, err := loop.NewCountedStructureCtx(context.Background(), ps.Orig.Nest, ps.Orig.D...)
		if err != nil {
			t.Fatal(err)
		}
		cps, err := project.Project(cst, ps.Pi)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Partition(ps, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Partition(cps, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariants(cp); err != nil {
			t.Fatalf("%s: counted partitioning fails: %v", c.name, err)
		}
		if cps.Orig.V != nil {
			t.Fatalf("%s: a clean invariant check built V", c.name)
		}
		clashes := 0
		for pt := range ps.NumPoints() {
			to := (int(p.GroupOf[pt]) + 1) % p.NumBlocks()
			q, cq := regrouped(p), regrouped(cp)
			q.movePoint(pt, to)
			cq.movePoint(pt, to)
			want, got := CheckInvariants(q), CheckInvariants(cq)
			if errString(got) != errString(want) {
				t.Fatalf("%s line %d → group %d: counted %v, eager %v", c.name, pt, to, got, want)
			}
			if want != nil {
				clashes++
			}
		}
		if clashes == 0 {
			t.Fatalf("%s: no move made a clash", c.name)
		}
		if cps.Orig.V != nil {
			t.Fatalf("%s: naming %d clashes built V", c.name, clashes)
		}
		t.Logf("%s/%d: %d of %d moves clash", c.name, c.size, clashes, ps.NumPoints())
	}
}
