package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mapping"
)

// runBoth simulates a built-in kernel with Simulate and the point oracle,
// asserts identical Stats, and returns them.
func runBoth(t *testing.T, label string, name string, size int64, cubeDim int, p machine.Params, opt Options) *Stats {
	t.Helper()
	k, a, sch, _ := buildCase(t, name, size, cubeDim)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	return matchOracle(t, label, st, sch, a, p, opt)
}

// TestEmptyFaultScheduleStrictNoOp asserts the acceptance criterion: a
// nil, zero, or configured-but-inert fault schedule leaves Stats
// byte-for-byte identical to the fault-free run, for every built-in
// kernel, mapped and unmapped.
func TestEmptyFaultScheduleStrictNoOp(t *testing.T) {
	params := machine.Era1991()
	empties := []*fault.Schedule{
		nil,
		{},
		{Seed: 99, Retry: fault.RetryPolicy{MaxAttempts: 7, Backoff: 2}},
	}
	for _, name := range kernels.Names() {
		for _, cubeDim := range []int{-1, 2, 3} {
			label := fmt.Sprintf("%s/dim=%d", name, cubeDim)
			k, a, sch, _ := buildCase(t, name, 6, cubeDim)
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			base, err := Simulate(st, sch, a, params, Options{Aggregate: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, sched := range empties {
				got, err := Simulate(st, sch, a, params, Options{Aggregate: true, Faults: sched})
				if err != nil {
					t.Fatalf("%s: empty schedule #%d: %v", label, i, err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s: empty schedule #%d perturbed Stats:\nbase %+v\ngot  %+v", label, i, base, got)
				}
			}
		}
	}
}

// faultSchedules is the property-test matrix: every class of fault, alone
// and combined. Crash times sit inside the fault-free makespan so the
// crashes actually trigger.
func faultSchedules(baseline float64) map[string]*fault.Schedule {
	return map[string]*fault.Schedule{
		"loss": {Seed: 1, LossProb: 0.3},
		"loss-heavy": {Seed: 2, LossProb: 0.9,
			Retry: fault.RetryPolicy{MaxAttempts: 5, Backoff: 0.5}},
		"crash": {Crashes: []fault.NodeCrash{{Node: 0, T: baseline / 2}}},
		"crash-two": {Crashes: []fault.NodeCrash{
			{Node: 1, T: baseline / 3}, {Node: 2, T: baseline / 2}},
			Checkpoint: fault.Checkpoint{RestartCost: 50}},
		"checkpoint": {Checkpoint: fault.Checkpoint{EverySteps: 2, Cost: 5}},
		"link":       {LinkFailures: []fault.LinkFailure{{A: 0, B: 1, T: 0}}},
		"everything": {Seed: 3, LossProb: 0.2,
			Crashes:      []fault.NodeCrash{{Node: 3, T: baseline / 2}},
			LinkFailures: []fault.LinkFailure{{A: 0, B: 2, T: baseline / 4}},
			Checkpoint:   fault.Checkpoint{EverySteps: 4, Cost: 10, RestartCost: 20}},
	}
}

// TestFaultNeverDecreasesMakespan is the monotonicity property: under the
// uncontended §IV cost model every injected fault only adds time, so no
// schedule may beat the fault-free makespan. Each run must also match
// the point oracle.
func TestFaultNeverDecreasesMakespan(t *testing.T) {
	params := machine.Era1991()
	for _, name := range []string{"matvec", "sor2d"} {
		base := runBoth(t, name+"/fault-free", name, 8, 2, params, Options{})
		if base.Crashes != 0 || base.Retransmits != 0 || base.CheckpointTime != 0 || base.ReplayTime != 0 {
			t.Fatalf("%s: fault-free run reports fault accounting: %+v", name, base)
		}
		for sname, sched := range faultSchedules(base.Makespan) {
			label := name + "/" + sname
			got := runBoth(t, label, name, 8, 2, params, Options{Faults: sched})
			if got.Makespan < base.Makespan {
				t.Errorf("%s: fault decreased makespan: %v < %v", label, got.Makespan, base.Makespan)
			}
		}
	}
}

// TestFaultDeterministicReplay runs the same seeded schedule 10 times
// concurrently (the chaos matrix runs this under -race) and requires
// byte-identical Stats from every run.
func TestFaultDeterministicReplay(t *testing.T) {
	params := machine.Era1991()
	k, a, sch, _ := buildCase(t, "matvec", 16, 3)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{
		Seed:         42,
		LossProb:     0.4,
		Crashes:      []fault.NodeCrash{{Node: 2, T: 4000}},
		LinkFailures: []fault.LinkFailure{{A: 0, B: 1, T: 1000}},
		Checkpoint:   fault.Checkpoint{EverySteps: 3, Cost: 7, RestartCost: 11},
	}
	opt := Options{Faults: sched}
	ref, err := Simulate(st, sch, a, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	runs := make([]*Stats, 10)
	errs := make([]error, 10)
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = Simulate(st, sch, a, params, opt)
		}(i)
	}
	wg.Wait()
	for i, got := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("run %d diverged:\nref %+v\ngot %+v", i, ref, got)
		}
	}
}

// TestFaultAccounting pins the bookkeeping semantics: certain loss
// triples message counts under the 3-attempt default, crashes and
// checkpoints report their costs, and different seeds may differ while
// the same seed never does.
func TestFaultAccounting(t *testing.T) {
	params := machine.Era1991()
	base := runBoth(t, "base", "matvec", 8, 2, params, Options{})

	// LossProb 1 with the default 3 attempts: every logical message is
	// sent exactly 3 times (two forced losses, final forced delivery).
	lossy := runBoth(t, "loss=1", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{Seed: 7, LossProb: 1}})
	if lossy.Messages != 3*base.Messages || lossy.Words != 3*base.Words {
		t.Errorf("certain loss: messages/words %d/%d, want %d/%d",
			lossy.Messages, lossy.Words, 3*base.Messages, 3*base.Words)
	}
	if lossy.Retransmits != 2*base.Messages {
		t.Errorf("certain loss: retransmits %d, want %d", lossy.Retransmits, 2*base.Messages)
	}

	crash := runBoth(t, "crash", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{
			Crashes:    []fault.NodeCrash{{Node: 0, T: base.Makespan / 2}},
			Checkpoint: fault.Checkpoint{RestartCost: 100},
		}})
	if crash.Crashes != 1 {
		t.Errorf("crash count %d, want 1", crash.Crashes)
	}
	if crash.ReplayTime <= 0 {
		t.Errorf("crash with no checkpointing replayed nothing (ReplayTime %v)", crash.ReplayTime)
	}

	ckpt := runBoth(t, "ckpt", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{Checkpoint: fault.Checkpoint{EverySteps: 1, Cost: 3}}})
	if ckpt.CheckpointTime <= 0 {
		t.Errorf("checkpointing charged no time")
	}
	if ckpt.Makespan < base.Makespan+3 {
		t.Errorf("checkpoint overhead missing from makespan: %v vs base %v", ckpt.Makespan, base.Makespan)
	}

	// Checkpointing before a crash must not lose more work than crashing
	// cold: replay time with EverySteps=1 is bounded by the cold replay.
	cold := runBoth(t, "crash-cold", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{
			Crashes: []fault.NodeCrash{{Node: 0, T: base.Makespan / 2}},
		}})
	warm := runBoth(t, "crash-warm", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{
			Crashes:    []fault.NodeCrash{{Node: 0, T: base.Makespan / 2}},
			Checkpoint: fault.Checkpoint{EverySteps: 1, Cost: 0},
		}})
	if warm.ReplayTime > cold.ReplayTime {
		t.Errorf("free checkpointing increased replay: warm %v > cold %v", warm.ReplayTime, cold.ReplayTime)
	}

	// Distinct seeds are allowed to diverge; the same seed is not (the
	// replay test covers identity — here we check the seed actually feeds
	// the stream by finding at least one divergence across a few seeds).
	first := runBoth(t, "seed0", "matvec", 8, 2, params,
		Options{Faults: &fault.Schedule{Seed: 0, LossProb: 0.5}})
	diverged := false
	for seed := uint64(1); seed <= 4; seed++ {
		got := runBoth(t, fmt.Sprintf("seed%d", seed), "matvec", 8, 2, params,
			Options{Faults: &fault.Schedule{Seed: seed, LossProb: 0.5}})
		if got.Retransmits != first.Retransmits || got.Makespan != first.Makespan {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("five different seeds produced identical loss patterns")
	}
}

// TestFaultValidation covers the machine-size-dependent rejections that
// Options.Validate (size-free) cannot catch.
func TestFaultValidation(t *testing.T) {
	params := machine.Era1991()
	k, a, sch, part := buildCase(t, "matvec", 8, 2)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}

	// Crash node beyond the machine.
	_, err = Simulate(st, sch, a, params, Options{Faults: &fault.Schedule{
		Crashes: []fault.NodeCrash{{Node: a.NumProcs, T: 1}},
	}})
	if err == nil || !errors.Is(err, fault.ErrInvalid) {
		t.Errorf("out-of-range crash node: err = %v", err)
	}

	// Link failures without a Route (BlocksAsProcs has none).
	bare := BlocksAsProcs(part)
	_, err = Simulate(st, sch, bare, params, Options{Faults: &fault.Schedule{
		LinkFailures: []fault.LinkFailure{{A: 0, B: 1, T: 0}},
	}})
	if err == nil || !errors.Is(err, ErrBadOptions) {
		t.Errorf("link failures without Route: err = %v", err)
	}

	// Every in-service processor of a degraded cube crashing leaves no
	// takeover node, though node 0 (failed before the run) does not.
	m, err := mapping.MapPartitioning(part, 2, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := mapping.Degrade(m, nil, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(st, sch, FromDegradedMapping(part, d), params, Options{Faults: &fault.Schedule{
		Crashes: []fault.NodeCrash{{Node: 1, T: 1}, {Node: 2, T: 1}, {Node: 3, T: 1}},
	}})
	if !errors.Is(err, fault.ErrInvalid) {
		t.Errorf("every survivor crashes: err = %v", err)
	}

	// Options.Validate catches size-free schedule errors before any
	// simulation work.
	if err := (Options{Faults: &fault.Schedule{LossProb: 2}}).Validate(); err == nil {
		t.Error("Options.Validate accepted LossProb 2")
	}
}

// TestContendedArrivalSlowsFailedLinks pins the contended-link arithmetic
// by hand on one two-link route: each message holds each link for
// k·t_comm + t_hop after it frees, a failed link triples that for
// messages injected at or after its failure time, and the fault-free
// model is the same walk at full speed.
func TestContendedArrivalSlowsFailedLinks(t *testing.T) {
	a := Assignment{NumProcs: 4, Route: func(src, dst int) []int { return []int{src, 1, dst} }}
	p := machine.Params{TCalc: 1, TStart: 2, TComm: 1, THop: 0.5}
	sch := &fault.Schedule{LinkFailures: []fault.LinkFailure{{A: 3, B: 1, T: 1}}}

	// Per link, a 2-word message takes 2·1 + 0.5 = 2.5 at full speed and
	// 7.5 on the failed link.
	for _, c := range []struct {
		name   string
		arrive func(t0 float64, src, dst int, k int64) float64
		want   [2]float64
	}{
		// Second message: t = 1+2 = 3, waits for link 0–1 until 4.5, then
		// 7, waits for link 1–3 until 7, then 9.5.
		{"fault-free", networkArrivalFunc(a, p, defaultHops, true), [2]float64{7, 9.5}},
		// The first message is injected before the failure (full speed);
		// the second crosses 1–3 after it: 7 + 7.5.
		{"failed link", newFaultState(sch, a, p, defaultHops, &Stats{}).arrivalFunc(true), [2]float64{7, 14.5}},
	} {
		got := [2]float64{c.arrive(0, 0, 3, 2), c.arrive(1, 0, 3, 2)}
		if got != c.want {
			t.Errorf("%s: arrivals %v, want %v", c.name, got, c.want)
		}
	}
}
