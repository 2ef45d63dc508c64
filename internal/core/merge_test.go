package core

import (
	"testing"
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
