package loopmap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ints"
	"repro/internal/kernels"
	"repro/internal/nestgen"
)

// fuzzNestgen is the kernel name under which FuzzNewPlan plans a
// generated nest instead of a built-in kernel.
const fuzzNestgen = "nestgen"

// fuzzKernel returns the kernel a fuzz input names: the built-in kernel
// at size, or for fuzzNestgen the nest, dependences and Π that nestgen
// draws from seed (its low three bits pick the shape and depth).
func fuzzKernel(name string, size, seed int64) (*Kernel, bool) {
	if name != fuzzNestgen {
		k, err := LookupKernel(name, size)
		return k, err == nil
	}
	c, ok := nestgen.Draw(rand.New(rand.NewSource(seed)), int(seed&7))
	if !ok {
		return nil, false
	}
	return kernels.Generic(c.Nest.Name, c.Nest, c.Deps, c.Pi, uint64(seed)), true
}

// FuzzNewPlan throws fuzzer-mutated option combinations at the full
// schedule → projection → partitioning → mapping pipeline, seeded from
// every built-in kernel and from generated nests of every shape. The
// contract under test: NewPlan either returns a structurally sound plan
// or a typed error — it must never panic, overflow, or hang past its
// context.
func FuzzNewPlan(f *testing.F) {
	for i, name := range KernelNames() {
		f.Add(name, int64(4+i%5), 3, false, int64(0), false, 0, int64(0), int64(0), int64(0))
		f.Add(name, int64(8), -1, true, int64(2), true, 1, int64(0), int64(0), int64(0))
		f.Add(name, int64(6), 2, false, int64(3), false, 2, int64(0), int64(0), int64(0))
	}
	for seed := int64(0); seed < 16; seed++ {
		f.Add(fuzzNestgen, int64(1), int(seed%4), seed%3 == 0, seed%4, seed%2 == 1, int(seed%3), seed, int64(0), int64(0))
	}
	// Merge factors far past any kernel's extent, and one whose r·q
	// overflows int64.
	for _, merge := range []int64{1 << 40, math.MaxInt64} {
		f.Add("l1", int64(8), 2, false, merge, false, 0, int64(0), int64(0), int64(0))
		f.Add("matmul", int64(6), 3, false, merge, true, 0, int64(0), int64(0), int64(0))
		f.Add(fuzzNestgen, int64(1), 2, false, merge, false, 0, int64(5), int64(0), int64(0))
	}
	// Π search bounds past any finishable search, one at the edge of
	// int64: each must end at its deadline.
	for _, bound := range []int64{1 << 20, math.MaxInt64} {
		f.Add("matmul", int64(4), 2, true, int64(0), false, 0, int64(0), bound, int64(0))
		f.Add(fuzzNestgen, int64(1), -1, true, int64(2), false, 0, int64(3), bound, int64(0))
	}
	// Explicit Π = k·(the kernel's Π): k = 2^31 and 2^32 overflow Π·Π or
	// the scaled projections of every kernel, MaxInt64/2 overflows Π
	// itself unless Π is a unit vector, and 2^20 plans.
	for _, k := range []int64{1 << 31, 1 << 32, math.MaxInt64 / 2, 1 << 20} {
		f.Add("l1", int64(8), 3, false, int64(0), false, 0, int64(0), int64(0), k)
		f.Add("stencil", int64(6), 2, false, int64(2), false, 0, int64(0), int64(0), k)
		f.Add("matmul", int64(4), -1, false, int64(0), true, 0, int64(0), int64(0), k)
		f.Add(fuzzNestgen, int64(1), 2, false, int64(0), false, 0, int64(6), int64(0), k)
	}
	f.Fuzz(func(t *testing.T, name string, size int64, cubeDim int, searchPi bool, merge int64, noAux bool, choice int, seed int64, bound int64, piScale int64) {
		// Keep the fuzzed size, cube dimension and grouping choice small;
		// the merge factor and the search bound span every value the
		// daemon admits (any q >= 0, any bound >= 0).
		if size < 1 || size > 16 {
			t.Skip()
		}
		if cubeDim < -1 || cubeDim > 4 {
			t.Skip()
		}
		if merge < 0 || choice < 0 || choice > 8 {
			t.Skip()
		}
		k, ok := fuzzKernel(name, size, seed)
		if !ok {
			t.Skip() // unknown kernel name or no valid Π: not this fuzzer's target
		}
		opt := PlanOptions{
			SearchPi:    searchPi,
			SearchBound: bound,
			CubeDim:     cubeDim,
			Partition: PartitionOptions{
				MergeFactor:    merge,
				NoAux:          noAux,
				GroupingChoice: choice,
			},
		}
		if err := opt.Validate(); err != nil {
			t.Skip() // invalid combinations are the caller's error
		}
		if piScale != 0 {
			checkScaledPi(t, k, opt, piScale)
			return
		}
		// A search past bound 3 may not finish: give it a short
		// deadline, which it must honor.
		deadline := 20 * time.Second
		if bound > 3 {
			deadline = 100 * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		p, err := NewPlanCtx(ctx, k, opt)
		if took := time.Since(start); took > deadline+5*time.Second {
			t.Fatalf("%s size %d: NewPlanCtx took %v under a %v deadline", name, size, took, deadline)
		}
		if err != nil {
			return // a typed refusal is a valid outcome
		}

		// A returned plan must be structurally sound.
		if p.Partitioning == nil || p.Partitioning.NumBlocks() <= 0 {
			t.Fatalf("%s size %d: plan with no blocks", name, size)
		}
		if p.TIG == nil {
			t.Fatalf("%s size %d: plan without a TIG", name, size)
		}
		if cubeDim >= 0 && p.Mapping == nil {
			t.Fatalf("%s size %d: CubeDim %d but no mapping", name, size, cubeDim)
		}
		if cubeDim < 0 && p.Mapping != nil {
			t.Fatalf("%s size %d: CubeDim %d yet a mapping was built", name, size, cubeDim)
		}
		_ = p.Summary() // must not panic

		// Remapping a planned kernel onto a different cube must hold the
		// same invariants.
		rp, err := p.Remap(2)
		if err != nil {
			return
		}
		if rp.Mapping == nil {
			t.Fatalf("%s size %d: Remap(2) lost the mapping", name, size)
		}
	})
}

// checkScaledPi plans k under the explicit Π = scale·k.Pi and under k.Pi
// itself. Scaling Π scales every projected point and dependence by the
// same factor, so the plan must either be refused with ErrTooLarge or
// have the same β, R, block count and TIG edge count as the unscaled
// one. A scale that is not positive, or that overflows Π itself, is no
// time function to try.
func checkScaledPi(t *testing.T, k *Kernel, opt PlanOptions, scale int64) {
	if scale < 1 || opt.SearchPi {
		t.Skip()
	}
	pi := make(IntVec, len(k.Pi))
	for i, a := range k.Pi {
		var ok bool
		if pi[i], ok = ints.CheckedMul(a, scale); !ok {
			t.Skip()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opt.Pi = k.Pi
	want, wantErr := NewPlanCtx(ctx, k, opt)
	opt.Pi = pi
	got, err := NewPlanCtx(ctx, k, opt)
	switch {
	case wantErr != nil:
		return // the unscaled options are refused: nothing to compare
	case errors.Is(err, ErrTooLarge):
		return
	case err != nil:
		t.Fatalf("%s: Π = %v: %v, want ErrTooLarge or the plan of Π = %v", k.Name, pi, err, k.Pi)
	}
	if g, w := shapeOf(got), shapeOf(want); g != w {
		t.Fatalf("%s: Π = %v plans %+v, Π = %v plans %+v", k.Name, pi, g, k.Pi, w)
	}
	_ = got.Summary() // must not panic
}
