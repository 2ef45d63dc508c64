package loopmap

// Randomized whole-pipeline tests: synthesize uniform loops with random
// dependence matrices and bounds, push them through schedule → projection
// → Algorithm 1 → Algorithm 2 → concurrent execution, and check every
// guarantee the paper proves plus functional equivalence with sequential
// execution. This is the library's strongest correctness evidence beyond
// the paper's own worked examples.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
)

// randomUniformLoop synthesizes a kernel over a generated nest (every
// shape in turn, 2-D or 3-D) with a generated dependence matrix, for
// which a valid hyperplane time function exists in the search bound.
func randomUniformLoop(rng *rand.Rand, trial int) (*Kernel, bool) {
	kind := nestgen.Kinds[trial%len(nestgen.Kinds)]
	nest := nestgen.Nest(rng, kind, 2+rng.Intn(2))
	nest.Name = fmt.Sprintf("fuzz-%d-%s", trial, kind)
	return uniformKernel(rng, nest)
}

// randomBoxLoop is randomUniformLoop over a box with 3 to 5 iterations
// per dimension.
func randomBoxLoop(rng *rand.Rand, trial int) (*Kernel, bool) {
	nest := nestgen.Box(rng, 2+rng.Intn(2), 3, 5)
	nest.Name = fmt.Sprintf("fuzz-%d-box", trial)
	return uniformKernel(rng, nest)
}

// uniformKernel gives nest a generated dependence matrix and the optimal
// Π in the search bound, or reports false when none exists.
func uniformKernel(rng *rand.Rand, nest *loop.Nest) (*Kernel, bool) {
	deps := nestgen.Deps(rng, nest.Dims, 2)

	// Check a valid Π exists; otherwise skip this draw (e.g. dependences
	// (1,0) plus (1,-9ish) combinations may be infeasible in the bound).
	st, err := loop.NewStructure(nest, deps...)
	if err != nil || len(st.V) == 0 {
		return nil, false
	}
	sch, err := hyperplane.FindOptimal(st, 2)
	if err != nil {
		return nil, false
	}
	k := kernels.Generic(nest.Name, nest, deps, sch.Pi, rng.Uint64())
	return k, true
}

func TestPipelineFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	valid := 0
	for trial := 0; valid < 60; trial++ {
		if trial > 600 {
			t.Fatalf("too few feasible random loops (%d after %d draws)", valid, trial)
		}
		k, ok := randomUniformLoop(rng, trial)
		if !ok {
			continue
		}
		valid++
		dim := rng.Intn(4) // 1..8 processors
		plan, err := NewPlan(k, PlanOptions{CubeDim: dim})
		if err != nil {
			t.Fatalf("%s: %v (deps %v, Π %v)", k.Name, err, k.Deps, k.Pi)
		}

		// Structural guarantees (Lemma 1, Theorem 1, group geometry).
		if err := core.CheckInvariants(plan.Partitioning); err != nil {
			t.Fatalf("%s: %v (deps %v, Π %v)", k.Name, err, k.Deps, k.Pi)
		}
		// Theorem 2 bound on the TIG.
		if err := core.CheckTheorem2(plan.Partitioning, plan.TIG); err != nil {
			t.Fatalf("%s: %v (deps %v, Π %v)", k.Name, err, k.Deps, k.Pi)
		}
		// The dependence analyzer must rederive the synthesized matrix.
		derived := k.Nest.Dependences()
		if len(derived) != len(k.Deps) {
			t.Fatalf("%s: derived %v, stated %v", k.Name, derived, k.Deps)
		}
		// Functional equivalence of the concurrent execution.
		if err := plan.Verify(); err != nil {
			t.Fatalf("%s: %v (deps %v, Π %v, dim %d)", k.Name, err, k.Deps, k.Pi, dim)
		}
	}
}

func TestPipelineFuzzRandomPi(t *testing.T) {
	// Exercise non-optimal time functions: random valid Π with larger
	// coefficients produce larger scale factors s = Π·Π, fractional
	// projections with varied r, and stressed grouping geometry. All
	// invariants and the functional equivalence must still hold.
	rng := rand.New(rand.NewSource(777))
	valid := 0
	for trial := 0; valid < 40; trial++ {
		if trial > 800 {
			t.Fatalf("too few feasible draws (%d)", valid)
		}
		k, ok := randomUniformLoop(rng, trial)
		if !ok {
			continue
		}
		// Draw a random valid Π (not necessarily optimal).
		st, err := k.Structure()
		if err != nil {
			t.Fatal(err)
		}
		pi := make(IntVec, st.Dim())
		found := false
		for attempt := 0; attempt < 50; attempt++ {
			for i := range pi {
				pi[i] = int64(rng.Intn(7) - 3)
			}
			if pi.IsZero() {
				continue
			}
			if hyperplane.Valid(pi, st.D) {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		valid++
		plan, err := NewPlan(k, PlanOptions{Pi: pi, CubeDim: rng.Intn(3)})
		if err != nil {
			t.Fatalf("%s Π=%v: %v", k.Name, pi, err)
		}
		if err := core.CheckInvariants(plan.Partitioning); err != nil {
			t.Fatalf("%s Π=%v deps=%v: %v", k.Name, pi, k.Deps, err)
		}
		if err := core.CheckTheorem2(plan.Partitioning, plan.TIG); err != nil {
			t.Fatalf("%s Π=%v deps=%v: %v", k.Name, pi, k.Deps, err)
		}
		// The kernel's recorded Π drives the executor's point ordering;
		// align it with the plan's Π before verifying.
		k.Pi = pi
		if err := plan.Verify(); err != nil {
			t.Fatalf("%s Π=%v deps=%v: %v", k.Name, pi, k.Deps, err)
		}
	}
}

func TestPipelineFuzzSimulation(t *testing.T) {
	// The simulator must accept every feasible random loop and produce a
	// makespan at least as large as the critical computation. The loops
	// are boxes of 3 to 5 iterations a side, whose dependence chains span
	// the schedule; a thin nest can finish its short chains in fewer
	// steps than its hyperplanes number.
	rng := rand.New(rand.NewSource(42))
	valid := 0
	for trial := 0; valid < 30; trial++ {
		if trial > 300 {
			t.Fatalf("too few feasible random loops")
		}
		k, ok := randomBoxLoop(rng, trial)
		if !ok {
			continue
		}
		valid++
		plan, err := NewPlan(k, PlanOptions{CubeDim: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		params := Params{TCalc: 1 + float64(rng.Intn(5)), TStart: float64(rng.Intn(20)), TComm: float64(rng.Intn(5))}
		s, err := plan.Simulate(params, SimOptions{Aggregate: rng.Intn(2) == 0})
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan < float64(s.MaxProcOps)*params.TCalc {
			t.Fatalf("%s: makespan %v below critical compute %v", k.Name, s.Makespan, float64(s.MaxProcOps)*params.TCalc)
		}
		// Makespan can never beat the schedule's critical path: the number
		// of steps times one point's compute time.
		minPath := float64(plan.Schedule.Steps()) * float64(k.Nest.OpsPerIteration()) * params.TCalc
		if s.Makespan+1e-9 < minPath {
			t.Fatalf("%s: makespan %v below schedule critical path %v", k.Name, s.Makespan, minPath)
		}
	}
}

func TestPipelineFuzzDeterminism(t *testing.T) {
	// The same seed must reproduce the identical plan and trace.
	build := func() (*Plan, *ExecResult) {
		rng := rand.New(rand.NewSource(7))
		var k *Kernel
		for trial := 0; ; trial++ {
			kk, ok := randomUniformLoop(rng, trial)
			if ok {
				k = kk
				break
			}
		}
		plan, err := NewPlan(k, PlanOptions{CubeDim: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := plan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return plan, res
	}
	p1, r1 := build()
	p2, r2 := build()
	if p1.Partitioning.NumBlocks() != p2.Partitioning.NumBlocks() {
		t.Fatal("plans differ across identical seeds")
	}
	if !r1.Equal(r2) {
		t.Fatal("traces differ across identical seeds")
	}
}
