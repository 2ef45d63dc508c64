package loopmap

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/pool"
)

// transientCase is one plan of the transient reuse test: a stage, its
// options (mapped onto cube) and the cube of a second mapping by remap.
type transientCase struct {
	name  string
	stage *Stage
	opt   PlanOptions
	remap int
	kept  *Plan
	// keptRemap is kept remapped onto the remap cube.
	keptRemap *Plan
}

// transientCases covers every built-in kernel at three sizes, merge
// factors 1 and 3, both aux settings, unmapped plans and cubes of
// dimension 0, 2 and 4, so transient plans that share the free list
// leave each other tables of other lengths and axis counts.
func transientCases(t *testing.T) []transientCase {
	ctx := context.Background()
	var cases []transientCase
	for _, name := range KernelNames() {
		for _, size := range []int64{3, 6, 11} {
			k, err := LookupKernel(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := PrepareCtx(ctx, k, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, merge := range []int64{1, 3} {
				for j, noAux := range []bool{false, true} {
					dim := []int{-1, 0, 2, 4}[(i+2*j+int(size))%4]
					opt := PlanOptions{CubeDim: dim, Partition: PartitionOptions{MergeFactor: merge, NoAux: noAux}}
					kept, err := st.PlanCtx(ctx, opt)
					if err != nil {
						t.Fatal(err)
					}
					remap := 4 - max(dim, 0)
					keptRemap, err := kept.Remap(remap)
					if err != nil {
						t.Fatal(err)
					}
					cases = append(cases, transientCase{
						name:  fmt.Sprintf("%s/%d merge=%d noAux=%v cube %d", name, size, merge, noAux, dim),
						stage: st, opt: opt, remap: remap, kept: kept, keptRemap: keptRemap,
					})
				}
			}
		}
	}
	return cases
}

// sameArtifacts reports whether two plans hold equal partitionings, TIGs
// and mappings.
func sameArtifacts(a, b *Plan) bool {
	return reflect.DeepEqual(a.Partitioning, b.Partitioning) && reflect.DeepEqual(a.TIG, b.TIG) &&
		reflect.DeepEqual(a.Mapping, b.Mapping)
}

// transientRun builds case c's transient plan and its remap and checks
// both against the kept plans.
func transientRun(c *transientCase) (*Plan, error) {
	p, err := c.stage.PlanTransientCtx(context.Background(), c.opt)
	if err != nil {
		return nil, err
	}
	if !sameArtifacts(p, c.kept) {
		return nil, fmt.Errorf("%s: transient plan differs from the kept one", c.name)
	}
	r, err := p.Remap(c.remap)
	if err != nil {
		return nil, err
	}
	if !sameArtifacts(r, c.keptRemap) {
		return nil, fmt.Errorf("%s: transient remap onto cube %d differs from the kept one", c.name, c.remap)
	}
	r.Release()
	return p, nil
}

// TestTransientPlanReuse builds transient plans and remaps on four
// goroutines that share the recycled free list, each walking the cases
// in its own order, with released tables poisoned. Every transient plan
// must equal the kept plan of its case when built, and must still equal
// it after the same goroutine built its next plan, so two live transient
// plans never share memory; a release hands back only its own plan's.
func TestTransientPlanReuse(t *testing.T) {
	pool.PoisonReleased.Store(true)
	defer pool.PoisonReleased.Store(false)
	cases := transientCases(t)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *Plan
			var prevCase *transientCase
			for j := range cases {
				c := &cases[(j*7+w*13)%len(cases)]
				p, err := transientRun(c)
				if err == nil && prev != nil && !sameArtifacts(prev, prevCase.kept) {
					err = fmt.Errorf("worker %d: %s changed while the next transient plan was built", w, prevCase.name)
				}
				if err != nil {
					errs <- err
					return
				}
				prev.Release()
				prev, prevCase = p, c
			}
			prev.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Kept plans never share recycled memory: every one is as built.
	fresh := transientCases(t)
	for i := range cases {
		if !sameArtifacts(cases[i].kept, fresh[i].kept) || !sameArtifacts(cases[i].keptRemap, fresh[i].keptRemap) {
			t.Fatalf("%s: a kept plan changed while transient plans were built and released", cases[i].name)
		}
	}
}

// TestReleaseIsOwnPlanOnly checks that Release is a no-op on a kept plan
// and on copies of a transient one: only the plan PlanTransientCtx (or
// a remap of it) returned hands its memory back.
func TestReleaseIsOwnPlanOnly(t *testing.T) {
	pool.PoisonReleased.Store(true)
	defer pool.PoisonReleased.Store(false)
	var c transientCase
	for _, c = range transientCases(t) {
		if c.opt.CubeDim >= 2 {
			break
		}
	}
	kept, err := c.stage.PlanCtx(context.Background(), c.opt)
	if err != nil {
		t.Fatal(err)
	}
	kept.Release()
	if !sameArtifacts(kept, c.kept) {
		t.Fatal("Release changed a kept plan")
	}
	p, err := c.stage.PlanTransientCtx(context.Background(), c.opt)
	if err != nil {
		t.Fatal(err)
	}
	cp := *p
	cp.Release()
	s := p.Stage()
	degraded, _, err := p.RemapDegraded(nil)
	if err != nil {
		t.Fatal(err)
	}
	degraded.Release()
	if !sameArtifacts(p, c.kept) || s.Projected != p.Projected {
		t.Fatal("releasing a copy of a transient plan released the plan")
	}
	p.Release()
}
