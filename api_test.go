package loopmap

// Tests for the service-ready API surface: typed sentinels matchable with
// errors.Is, option validation, and cooperative cancellation through every
// pipeline stage.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestLookupKernel(t *testing.T) {
	k, err := LookupKernel("l1", 8)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "l1" {
		t.Fatalf("name = %q", k.Name)
	}
	if _, err := LookupKernel("no-such-kernel", 8); !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("unknown kernel: err = %v, want ErrUnknownKernel", err)
	} else if !strings.Contains(err.Error(), "matmul") {
		t.Fatalf("unknown-kernel error should list the available names: %v", err)
	}
	if _, err := LookupKernel("l1", 0); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestErrNoSchedule(t *testing.T) {
	k, err := LookupKernel("l1", 6)
	if err != nil {
		t.Fatal(err)
	}
	// Π = (0, 0) satisfies no dependence, so scheduling must fail with the
	// typed sentinel (this is what the daemon maps to a 400).
	_, err = NewPlan(k, PlanOptions{Pi: Vec(0, 0), CubeDim: -1})
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
}

func TestErrCubeTooSmall(t *testing.T) {
	k, err := LookupKernel("l1", 8)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewPlan(k, PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	// 9 blocks cannot be placed one-per-node on a 3-cube (8 nodes).
	if n := base.Partitioning.NumBlocks(); n != 9 {
		t.Fatalf("blocks = %d, want 9", n)
	}
	_, err = base.RemapOpts(3, MapOptions{Exclusive: true})
	if !errors.Is(err, ErrCubeTooSmall) {
		t.Fatalf("err = %v, want ErrCubeTooSmall", err)
	}
	// The default shared placement still accepts the small cube, and a
	// 4-cube accepts the exclusive one.
	if _, err := base.RemapOpts(3, MapOptions{}); err != nil {
		t.Fatalf("shared placement on 3-cube: %v", err)
	}
	p, err := base.RemapOpts(4, MapOptions{Exclusive: true})
	if err != nil {
		t.Fatalf("exclusive placement on 4-cube: %v", err)
	}
	loads := map[int]int{}
	for _, node := range p.Mapping.NodeOf {
		loads[node]++
		if loads[node] > 1 {
			t.Fatalf("exclusive placement put %d blocks on node %d", loads[node], node)
		}
	}
}

func TestPlanOptionsValidate(t *testing.T) {
	bad := []PlanOptions{
		{SearchBound: -1},
		{SearchBound: 3}, // bound without SearchPi
		{Pi: Vec(1, 1), SearchPi: true},
		{Partition: PartitionOptions{MergeFactor: -2}},
		{Partition: PartitionOptions{GroupingChoice: -1}},
		{Mapping: MapOptions{Policy: 99}},
	}
	for i, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	if err := (PlanOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	// NewPlan surfaces validation failures before doing any work.
	k, _ := LookupKernel("l1", 4)
	if _, err := NewPlan(k, PlanOptions{SearchBound: -1}); err == nil {
		t.Fatal("NewPlan accepted invalid options")
	}
}

func TestSimOptionsValidate(t *testing.T) {
	bad := SimOptions{Faults: &FaultSchedule{LossProb: 2}}
	if err := bad.Validate(); !errors.Is(err, ErrBadFaultSchedule) {
		t.Fatalf("loss probability 2: err = %v, want ErrBadFaultSchedule", err)
	}
	if err := (SimOptions{}).Validate(); err != nil {
		t.Fatal(err)
	}
	k, _ := LookupKernel("l1", 4)
	plan, err := NewPlan(k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Simulate(Era1991(), bad); !errors.Is(err, ErrBadFaultSchedule) {
		t.Fatalf("Simulate: err = %v, want ErrBadFaultSchedule", err)
	}
}

func TestNewPlanCtxCancellation(t *testing.T) {
	k, err := LookupKernel("matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPlanCtx(ctx, k, PlanOptions{CubeDim: -1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPiSearchHonorsDeadline: a Π search far too large to finish (bound
// 100000, and math.MaxInt64, whose loop must not wrap) under a 200 ms
// deadline returns context.DeadlineExceeded within a few seconds.
func TestPiSearchHonorsDeadline(t *testing.T) {
	for _, bound := range []int64{100000, math.MaxInt64} {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, err := NewPlanCtx(ctx, NewKernel("matmul", 4), PlanOptions{SearchPi: true, SearchBound: bound})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("bound %d: err = %v, want context.DeadlineExceeded", bound, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("bound %d: NewPlanCtx still searching 5 s after its 200 ms deadline", bound)
		}
	}
}

// TestGroupingChoiceOutOfRange: a grouping choice past the nonzero
// projected dependences is refused with ErrGroupingChoice.
func TestGroupingChoiceOutOfRange(t *testing.T) {
	_, err := NewPlan(NewKernel("l1", 4), PlanOptions{Partition: PartitionOptions{GroupingChoice: 9}})
	if !errors.Is(err, ErrGroupingChoice) {
		t.Fatalf("err = %v, want ErrGroupingChoice", err)
	}
}

// TestStagePlanCtx: PlanCtx on a prepared stage validates its options,
// honors cancellation, and shares the stage's artifacts with the plan.
func TestStagePlanCtx(t *testing.T) {
	st, err := PrepareCtx(context.Background(), NewKernel("stencil", 12), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PlanCtx(nil, PlanOptions{Partition: PartitionOptions{MergeFactor: -1}}); err == nil {
		t.Fatal("PlanCtx accepted a negative merge factor")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.PlanCtx(ctx, PlanOptions{CubeDim: -1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	p, err := st.PlanCtx(nil, PlanOptions{CubeDim: 2, Partition: PartitionOptions{MergeFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Structure != st.Structure || p.Projected != st.Projected || p.Stage().Projected != st.Projected {
		t.Fatal("plan does not share the stage's structure and projection")
	}
}

func TestSimulateCtxCancellation(t *testing.T) {
	k, err := LookupKernel("l1", 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.SimulateCtx(ctx, Era1991(), SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("simulate: err = %v, want context.Canceled", err)
	}
	if err := plan.VerifyCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("verify: err = %v, want context.Canceled", err)
	}
}

func TestCtxWrappersMatchPlainCalls(t *testing.T) {
	k, err := LookupKernel("l1", 6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPlan(k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanCtx(context.Background(), k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("ctx and plain plans differ:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	sa, err := a.Simulate(Era1991(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SimulateCtx(context.Background(), Era1991(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Makespan != sb.Makespan {
		t.Fatalf("makespan %v vs %v", sa.Makespan, sb.Makespan)
	}
	if err := b.VerifyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}
