package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/pool"
	"repro/internal/project"
)

// scratchCase is one Algorithm 1 run of the reuse test.
type scratchCase struct {
	name  string
	stage *Stage
	opt   Options
}

// scratchCases covers every built-in kernel at three sizes, generated 2-
// and 3-deep nests, merge factors 1 and 3 and both aux settings, so runs
// that share the free list leave each other record buffers, probe vectors
// and counter tables of other sizes and dimensions.
func scratchCases(t *testing.T) []scratchCase {
	var structures []*project.Structure
	var names []string
	for _, name := range kernels.Names() {
		for _, size := range []int64{3, 6, 11} {
			structures = append(structures, projectKernel(t, name, size, false))
			names = append(names, fmt.Sprintf("%s/%d", name, size))
		}
	}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; len(structures) < 3*len(kernels.Names())+12; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := project.Project(st, c.Pi)
		if err != nil {
			t.Fatal(err)
		}
		structures = append(structures, ps)
		names = append(names, c.Name)
	}
	var cases []scratchCase
	for i, ps := range structures {
		stage := NewStage(ps)
		for _, merge := range []int64{1, 3} {
			for _, noAux := range []bool{false, true} {
				cases = append(cases, scratchCase{
					name:  fmt.Sprintf("%s merge=%d noAux=%v", names[i], merge, noAux),
					stage: stage,
					opt:   Options{MergeFactor: merge, NoAux: noAux},
				})
			}
		}
	}
	return cases
}

// scratchRun is what one case produces: the partitioning, its invariant
// check and its TIG.
type scratchRun struct {
	p   *Partitioning
	err error
	tig *TIG
}

func runScratchCase(c scratchCase) (scratchRun, error) {
	p, err := c.stage.PartitionCtx(context.Background(), c.opt)
	if err != nil {
		return scratchRun{}, err
	}
	return scratchRun{p: p, err: CheckInvariants(p), tig: BuildTIG(p)}, nil
}

// runTablesCase builds case c's partitioning and TIG into tab, checks
// them against the kept run want, and resets tab.
func runTablesCase(c scratchCase, tab *Tables, want scratchRun) error {
	defer tab.Reset()
	p, err := c.stage.PartitionInto(context.Background(), c.opt, tab)
	if err != nil {
		return err
	}
	if r := (scratchRun{p: p, err: CheckInvariants(p), tig: BuildTIGInto(p, tab)}); !reflect.DeepEqual(r, want) {
		return fmt.Errorf("%s: the build into Tables differs from the kept one (invariants: %v)", c.name, r.err)
	}
	return nil
}

// TestScratchReuse runs Algorithm 1, the invariant check and the TIG
// build on four goroutines that share the scratch free list, each walking
// the cases in its own order. Every run must equal the one built with the
// list empty, and every result must still equal it once all runs are
// done, so no returned table shares pooled memory. Each goroutine also
// builds every case into its own Tables, poisoned on each Reset, and that
// build must equal the kept one too.
func TestScratchReuse(t *testing.T) {
	pool.PoisonReleased.Store(true)
	defer pool.PoisonReleased.Store(false)
	cases := scratchCases(t)
	want := make([]scratchRun, len(cases))
	for i, c := range cases {
		scratchFree.Clear()
		r, err := runScratchCase(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.err != nil {
			t.Fatalf("%s: %v", c.name, r.err)
		}
		want[i] = r
	}

	const workers = 4
	got := make([][]scratchRun, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		got[w] = make([]scratchRun, len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tab Tables
			for j := range cases {
				i := (j*7 + w*13) % len(cases)
				r, err := runScratchCase(cases[i])
				if err == nil && (r.err != nil || !reflect.DeepEqual(r, want[i])) {
					err = fmt.Errorf("worker %d: %s differs from its build on an empty free list (invariants: %v)", w, cases[i].name, r.err)
				}
				if err == nil {
					err = runTablesCase(cases[i], &tab, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
				got[w][i] = r
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range got {
		for i, r := range got[w] {
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("worker %d: %s changed after later runs reused the scratch", w, cases[i].name)
			}
		}
	}
	// The first case's reference was built first of all; later runs must
	// not have touched it either.
	if again, _ := runScratchCase(cases[0]); !reflect.DeepEqual(again, want[0]) {
		t.Fatalf("%s: the first reference changed after later runs", cases[0].name)
	}
}
