package loopmap

// Tests for the fault-tolerance surface of the Plan API: degraded-mode
// remapping (RemapDegraded), fault-schedule simulation via
// SimOptions.Faults, and the option validation riding along.

import (
	"errors"
	"reflect"
	"testing"
)

func degradedPlan(t *testing.T, size int64, dim int) *Plan {
	t.Helper()
	plan, err := NewPlan(NewKernel("matvec", size), PlanOptions{CubeDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRemapDegradedPlacesNoBlockOnFailedNode(t *testing.T) {
	plan := degradedPlan(t, 16, 3)
	for _, failed := range [][]int{{0}, {2, 5}, {6, 1, 4}} {
		degraded, stats, err := plan.RemapDegraded(failed)
		if err != nil {
			t.Fatalf("RemapDegraded(%v): %v", failed, err)
		}
		bad := map[int]bool{}
		for _, n := range failed {
			bad[n] = true
		}
		for b, n := range degraded.Degraded.NodeOf {
			if bad[n] {
				t.Fatalf("failed=%v: block %d placed on dead node %d", failed, b, n)
			}
		}
		// Inflation is usually ≥ 1, but not guaranteed: under the paper's
		// send-occupies-sender model, consolidating blocks can remove more
		// t_start cost than the lost parallelism adds. Assert only that
		// the ratio was computed and is sane.
		if stats.MakespanInflation <= 0 {
			t.Errorf("failed=%v: makespan inflation %v not computed", failed, stats.MakespanInflation)
		}
		if len(stats.FailedNodes) != len(failed) {
			t.Errorf("failed=%v: stats report %v", failed, stats.FailedNodes)
		}
		// The degraded plan must still compute the right answer: every
		// block's values survive on the takeover node.
		if err := degraded.Verify(); err != nil {
			t.Fatalf("failed=%v: degraded plan diverged: %v", failed, err)
		}
	}
}

func TestRemapDegradedDoesNotMutateBase(t *testing.T) {
	plan := degradedPlan(t, 16, 3)
	before := append([]int(nil), plan.Mapping.NodeOf...)
	if _, _, err := plan.RemapDegraded([]int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, plan.Mapping.NodeOf) {
		t.Fatal("RemapDegraded mutated the base plan's mapping")
	}
	if plan.Degraded != nil {
		t.Fatal("RemapDegraded set Degraded on the base plan")
	}
}

func TestRemapDegradedErrors(t *testing.T) {
	unmapped, err := NewPlan(NewKernel("matvec", 8), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := unmapped.RemapDegraded([]int{0}); !errors.Is(err, ErrDegraded) {
		t.Errorf("no mapping phase: err = %v", err)
	}
	plan := degradedPlan(t, 8, 2)
	if _, _, err := plan.RemapDegraded([]int{0, 1, 2, 3}); !errors.Is(err, ErrDegraded) {
		t.Errorf("all nodes failed: err = %v", err)
	}
	if _, _, err := plan.RemapDegraded([]int{99}); !errors.Is(err, ErrDegraded) {
		t.Errorf("out-of-range node: err = %v", err)
	}
}

func TestPlanSimulateWithFaults(t *testing.T) {
	plan := degradedPlan(t, 16, 3)
	params := Era1991()
	base, err := plan.Simulate(params, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := &FaultSchedule{
		Seed:       11,
		LossProb:   0.5,
		Crashes:    []NodeCrash{{Node: 1, T: base.Makespan / 2}},
		Checkpoint: CheckpointPolicy{EverySteps: 2, Cost: 5, RestartCost: 10},
	}
	var prev *SimStats
	for run := 0; run < 3; run++ {
		got, err := plan.Simulate(params, SimOptions{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan < base.Makespan {
			t.Fatalf("faults decreased makespan: %v < %v", got.Makespan, base.Makespan)
		}
		if got.Crashes != 1 || got.Retransmits == 0 || got.CheckpointTime == 0 {
			t.Fatalf("fault accounting missing: crashes=%d retransmits=%d ckpt=%v",
				got.Crashes, got.Retransmits, got.CheckpointTime)
		}
		if prev != nil && !reflect.DeepEqual(prev, got) {
			t.Fatalf("same seed diverged across runs:\n%+v\n%+v", prev, got)
		}
		prev = got
	}
}

func TestSimOptionsValidateFaults(t *testing.T) {
	plan := degradedPlan(t, 8, -1) // BlocksAsProcs: no Route
	params := Era1991()

	if _, err := plan.Simulate(params, SimOptions{LinkContention: true}); !errors.Is(err, ErrBadSimOptions) {
		t.Errorf("LinkContention without Route: err = %v", err)
	}
	if _, err := plan.Simulate(params, SimOptions{Faults: &FaultSchedule{
		LinkFailures: []LinkFailure{{A: 0, B: 1, T: 0}},
	}}); !errors.Is(err, ErrBadSimOptions) {
		t.Errorf("link failures without Route: err = %v", err)
	}
	if _, err := plan.Simulate(params, SimOptions{Faults: &FaultSchedule{LossProb: 7}}); !errors.Is(err, ErrBadFaultSchedule) {
		t.Errorf("LossProb 7: err = %v", err)
	}
	if err := (SimOptions{Faults: &FaultSchedule{LossProb: -1}}).Validate(); !errors.Is(err, ErrBadFaultSchedule) {
		t.Errorf("SimOptions.Validate LossProb -1: err = %v", err)
	}
}

func TestPlanOptionsValidateExclusiveNeedsCube(t *testing.T) {
	opt := PlanOptions{CubeDim: -1, Mapping: MapOptions{Exclusive: true}}
	if err := opt.Validate(); err == nil {
		t.Fatal("Exclusive without a cube accepted")
	}
	if _, err := NewPlan(NewKernel("matvec", 8), opt); err == nil {
		t.Fatal("NewPlan accepted Exclusive without a cube")
	}
	opt.CubeDim = 4
	if err := opt.Validate(); err != nil {
		t.Fatalf("Exclusive with a cube rejected: %v", err)
	}
}
