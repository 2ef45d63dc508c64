package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/project"
	"repro/internal/sim"
)

func buildPipeline(t *testing.T, k *kernels.Kernel, dim int) (*core.Partitioning, *core.TIG, *mapping.Result, hyperplane.Schedule) {
	t.Helper()
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.NewSchedule(st, k.Pi)
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
	tig := core.BuildTIG(p)
	m, err := mapping.MapPartitioning(p, dim, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, tig, m, sch
}

func TestPredictLowerBoundsSimulation(t *testing.T) {
	// The closed-form prediction charges only compute + serialized sends,
	// so the event simulation (which also waits on dependences) can never
	// finish earlier.
	for _, name := range []string{"matvec", "matmul", "stencil"} {
		for _, dim := range []int{1, 2, 3} {
			k := kernels.Registry[name](10)
			p, tig, m, sch := buildPipeline(t, k, dim)
			params := machine.Era1991()
			pred := PredictMapped(p, tig, m, params)
			s, err := sim.Simulate(p.PS.Orig, sch, sim.FromMapping(p, m), params, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Makespan+1e-9 < pred.Time {
				t.Fatalf("%s dim=%d: sim %v below prediction %v", name, dim, s.Makespan, pred.Time)
			}
			// And it should be within a small multiple for these regular
			// kernels (the model captures the dominant terms).
			if s.Makespan > 20*pred.Time {
				t.Fatalf("%s dim=%d: sim %v wildly above prediction %v", name, dim, s.Makespan, pred.Time)
			}
		}
	}
}

func TestPredictMatVecMatchesTableI(t *testing.T) {
	// With one block per processor... the paper instead folds M/N blocks
	// per processor; emulate Table I's accounting by mapping onto N procs
	// and checking the critical processor's ops charge equals the kernel
	// op count (3 per point) times W.
	const m = 64
	k := kernels.MatVec(m)
	for _, dim := range []int{1, 2, 3} {
		p, tig, mp, _ := buildPipeline(t, k, dim)
		pred := PredictMapped(p, tig, mp, machine.Unit())
		n := int64(1) << uint(dim)
		wantOps := MatVecCalcOps(m, n) / 2 * 3
		if pred.Ops[pred.CriticalProc] != wantOps {
			t.Fatalf("dim %d: critical ops %d, want %d", dim, pred.Ops[pred.CriticalProc], wantOps)
		}
	}
}

func TestPredictBlocksConsistentWithTIG(t *testing.T) {
	k := kernels.MatMul(5)
	p, tig, _, _ := buildPipeline(t, k, 2)
	// One block per processor.
	nodeOf := make([]int, tig.N)
	for b := range nodeOf {
		nodeOf[b] = b
	}
	pred := Predict(p, tig, nodeOf, tig.N, machine.Unit())
	var totalSend int64
	for _, w := range pred.SendWords {
		totalSend += w
	}
	if totalSend != tig.TotalTraffic() {
		t.Fatalf("prediction send words %d != TIG traffic %d", totalSend, tig.TotalTraffic())
	}
	var totalOps int64
	for _, o := range pred.Ops {
		totalOps += o
	}
	want := int64(len(p.PS.Orig.V) * p.PS.Orig.Nest.OpsPerIteration())
	if totalOps != want {
		t.Fatalf("prediction ops %d != structure total %d", totalOps, want)
	}
}
