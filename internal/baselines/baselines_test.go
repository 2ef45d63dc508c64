package baselines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

func structure(t *testing.T, k *kernels.Kernel) *loop.Structure {
	t.Helper()
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIndependentSerializesPaperKernels(t *testing.T) {
	// §I: "For many important nested loop algorithms, such as matrix
	// multiplication, … convolution, transitive closure, … these index sets
	// cannot be partitioned into independent blocks."
	for _, name := range []string{"matmul", "matvec", "convolution", "closure", "l1"} {
		st := structure(t, kernels.Registry[name](5))
		b, err := Independent(st)
		if err != nil {
			t.Fatal(err)
		}
		if b.N != 1 {
			t.Errorf("%s: independent partitioning found %d blocks, expected serialization (1)", name, b.N)
		}
		if IndependentBlockCount(st) != 1 {
			t.Errorf("%s: det = %d, want 1", name, IndependentBlockCount(st))
		}
	}
}

func TestIndependentFindsParallelismWhenItExists(t *testing.T) {
	// D = {(2,0),(0,3)}: 6 independent blocks, no interblock deps.
	n := loop.NewRect("sparse", []int64{0, 0}, []int64{11, 11})
	st, err := loop.NewStructure(n, vec.NewInt(2, 0), vec.NewInt(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Independent(st)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 6 {
		t.Fatalf("blocks = %d, want 6", b.N)
	}
	if s := b.EdgeStats(st); s.InterBlock != 0 {
		t.Fatalf("independent blocks have %d interblock deps", s.InterBlock)
	}
	if IndependentBlockCount(st) != 6 {
		t.Fatalf("det = %d", IndependentBlockCount(st))
	}
}

func TestIndependentRankDeficient(t *testing.T) {
	// Single dependence (1,1) on a 4x4 set: cosets along the
	// anti-direction — 7 of them, all independent.
	n := loop.NewRect("diag", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Independent(st)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 7 {
		t.Fatalf("blocks = %d, want 7", b.N)
	}
	if s := b.EdgeStats(st); s.InterBlock != 0 {
		t.Fatalf("interblock = %d", s.InterBlock)
	}
	if IndependentBlockCount(st) != 0 {
		t.Fatal("rank-deficient det should report 0")
	}
}

func TestLinePerBlockVsPaperPartitioning(t *testing.T) {
	// Line-per-block doubles the parallel block count of the paper's r=2
	// grouping for L1 but must cost strictly more interblock traffic.
	k := kernels.L1(3)
	st := structure(t, k)
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	lines := LinePerBlock(ps)
	if lines.N != 7 {
		t.Fatalf("lines = %d, want 7", lines.N)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paper := FromPartitioning("paper", p.BlockOf(), p.NumBlocks())
	ls, pp := lines.EdgeStats(st), paper.EdgeStats(st)
	if ls.Total != pp.Total {
		t.Fatalf("total edges differ: %d vs %d", ls.Total, pp.Total)
	}
	if ls.InterBlock <= pp.InterBlock {
		t.Fatalf("line-per-block interblock %d not above paper %d", ls.InterBlock, pp.InterBlock)
	}
	// For L1 the paper's grouping leaves 12 interblock deps; per-line
	// grouping leaves 24 (the r=2 merge absorbs exactly the deps between
	// the two lines of each group).
	if pp.InterBlock != 12 || ls.InterBlock != 24 {
		t.Fatalf("interblock: paper %d (want 12), lines %d (want 24)", pp.InterBlock, ls.InterBlock)
	}
}

func TestRoundRobinWorstLocality(t *testing.T) {
	k := kernels.MatMul(4)
	st := structure(t, k)
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paper := FromPartitioning("paper", p.BlockOf(), p.NumBlocks())
	// At the same block count as the paper's partitioning, round-robin
	// scattering makes every dependence interblock (144 of 144 for the
	// 4×4×4 matmul) while the grouping keeps 32 internal.
	rrEq, err := RoundRobin(st, p.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	rrStats, paperStats := rrEq.EdgeStats(st), paper.EdgeStats(st)
	if rrStats.InterBlock != rrStats.Total {
		t.Fatalf("round-robin interblock %d of %d, expected all", rrStats.InterBlock, rrStats.Total)
	}
	if paperStats.InterBlock >= rrStats.InterBlock {
		t.Fatalf("paper grouping interblock %d not below round-robin %d", paperStats.InterBlock, rrStats.InterBlock)
	}
	if _, err := RoundRobin(st, 0); err == nil {
		t.Fatal("RoundRobin(0) accepted")
	}
}

func TestFold(t *testing.T) {
	k := kernels.MatVec(6)
	st := structure(t, k)
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	lines := LinePerBlock(ps)
	procOf := lines.Fold(4)
	for _, p := range procOf {
		if p < 0 || p >= 4 {
			t.Fatalf("folded proc %d out of range", p)
		}
	}
	if len(procOf) != len(st.V) {
		t.Fatal("fold length mismatch")
	}
}

func TestMaxLoad(t *testing.T) {
	b := &Blocks{Name: "x", Of: []int{0, 0, 1, 0, 1}, N: 2}
	if b.MaxLoad() != 3 {
		t.Fatalf("MaxLoad = %d", b.MaxLoad())
	}
}
