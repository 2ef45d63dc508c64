package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/mapping"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/vec"
)

func setup(t *testing.T, k *kernels.Kernel, dim int) (*loop.Structure, sim.Assignment, *core.Partitioning) {
	t.Helper()
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.MapPartitioning(p, dim, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, sim.FromMapping(p, m), p
}

func TestAllKernelsMatchSequentialAcrossMachineSizes(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, dim := range []int{0, 1, 2, 3} {
			k := kernels.Registry[name](6)
			st, pl, _ := setup(t, k, dim)
			want, err := kernels.RunSequential(k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, _, err := Run(k, st, pl.ProcOf, pl.NumProcs)
			if err != nil {
				t.Fatalf("%s dim=%d: %v", name, dim, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s dim=%d: concurrent result differs from sequential", name, dim)
			}
		}
	}
}

func TestBlocksAsProcsMatchesSequential(t *testing.T) {
	k := kernels.MatMul(5)
	st, _, p := setup(t, k, 2)
	want, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.BlocksAsProcs(p)
	got, stats, err := Run(k, st, a.ProcOf, a.NumProcs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("blocks-as-procs result differs from sequential")
	}
	// With one block per processor, message count equals TIG traffic.
	tig := core.BuildTIG(p)
	if stats.Messages != tig.TotalTraffic() {
		t.Fatalf("messages %d != TIG traffic %d", stats.Messages, tig.TotalTraffic())
	}
}

func TestSingleProcessorNoMessages(t *testing.T) {
	k := kernels.MatVec(6)
	st, _, _ := setup(t, k, 0)
	res, stats, err := Run(k, st, make([]int, len(st.V)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Fatalf("single processor sent %d messages", stats.Messages)
	}
	want, _ := kernels.RunSequential(k)
	if !res.Equal(want) {
		t.Fatal("single-processor result differs")
	}
}

func TestPointsPerProcCoverStructure(t *testing.T) {
	k := kernels.MatMul(5)
	st, pl, _ := setup(t, k, 2)
	_, stats, err := Run(k, st, pl.ProcOf, pl.NumProcs)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range stats.PointsPerProc {
		total += c
	}
	if total != int64(len(st.V)) {
		t.Fatalf("points executed %d, structure has %d", total, len(st.V))
	}
}

func TestPartitioningReducesMessagesVsPointwise(t *testing.T) {
	// Blocks-as-procs must communicate no more than a point-per-proc
	// round-robin placement (the fine-grain strawman).
	k := kernels.MatMul(5)
	st, _, p := setup(t, k, 2)
	a := sim.BlocksAsProcs(p)
	_, blockStats, err := Run(k, st, a.ProcOf, a.NumProcs)
	if err != nil {
		t.Fatal(err)
	}
	rr := make([]int, len(st.V))
	for vi := range st.V {
		rr[vi] = vi % 8
	}
	_, rrStats, err := Run(k, st, rr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if blockStats.Messages >= rrStats.Messages {
		t.Fatalf("partitioned messages %d not below round-robin %d", blockStats.Messages, rrStats.Messages)
	}
}

func TestMeshPlacementMatchesSequential(t *testing.T) {
	k := kernels.MatMul(6)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.MapPartitioningMesh(p, 2, 4, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.FromMeshMapping(p, m)
	got, _, err := Run(k, st, a.ProcOf, a.NumProcs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("mesh-placed execution differs from sequential")
	}
}

func TestRunErrors(t *testing.T) {
	k := kernels.MatVec(4)
	st, pl, _ := setup(t, k, 1)
	noSem := kernels.MatVec(4)
	noSem.Sem = nil
	if _, _, err := Run(noSem, st, pl.ProcOf, pl.NumProcs); err == nil {
		t.Fatal("kernel without semantics accepted")
	}
	if _, _, err := Run(k, st, []int{0}, 1); err == nil {
		t.Fatal("short placement accepted")
	}
	if _, _, err := Run(k, st, make([]int, len(st.V)), 0); err == nil {
		t.Fatal("zero processors accepted")
	}
	bad := make([]int, len(st.V))
	bad[0] = 7
	if _, _, err := Run(k, st, bad, 2); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestRunRejectsInvalidPi(t *testing.T) {
	// An invalid time function would deadlock the processors; Run must
	// reject it up front.
	k := kernels.MatVec(4)
	st, pl, _ := setup(t, k, 1)
	k.Pi = loopmapVec(1, -1) // Π·(0,1) < 0
	if _, _, err := Run(k, st, pl.ProcOf, pl.NumProcs); err == nil {
		t.Fatal("invalid Π accepted")
	}
}

func loopmapVec(vals ...int64) vec.Int { return vec.NewInt(vals...) }

func TestRepeatedRunsDeterministic(t *testing.T) {
	// Concurrency must not introduce nondeterminism in the trace.
	k := kernels.Convolution(8, 4)
	st, pl, _ := setup(t, k, 2)
	first, _, err := Run(k, st, pl.ProcOf, pl.NumProcs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _, err := Run(k, st, pl.ProcOf, pl.NumProcs)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(first) {
			t.Fatalf("run %d differs", i)
		}
	}
}
