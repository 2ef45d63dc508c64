package mapping

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
)

// mapJob is one mapping of the reuse test; run returns its result.
type mapJob struct {
	name string
	run  func() (any, error)
}

// scratchJobs maps the partitionings of every built-in kernel at two
// sizes and of generated 2- and 3-deep nests, at merge factors 1 and 3,
// onto cubes of dimension 0, 2 and 5 under both axis policies and onto a
// mesh, plus random item sets with missing and mixed-length coordinates:
// runs that share the free list leave each other orders, cluster tables
// and item buffers of other lengths and axis counts.
func scratchJobs(t *testing.T) []mapJob {
	var structures []*project.Structure
	var names []string
	add := func(name string, st *loop.Structure, pi []int64) {
		ps, err := project.Project(st, pi)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		structures, names = append(structures, ps), append(names, name)
	}
	for _, name := range kernels.Names() {
		for _, size := range []int64{3, 9} {
			k, err := kernels.Lookup(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/%d", name, size), st, k.Pi)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; len(structures) < 2*len(kernels.Names())+6; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		add(c.Name, st, c.Pi)
	}
	var jobs []mapJob
	for i, ps := range structures {
		for _, opt := range []core.Options{{}, {MergeFactor: 3, NoAux: true}} {
			p, err := core.Partition(ps, opt)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			name := fmt.Sprintf("%s merge=%d noAux=%v", names[i], opt.MergeFactor, opt.NoAux)
			for _, dim := range []int{0, 2, 5} {
				for _, policy := range []AxisPolicy{RoundRobin, WidestFirst} {
					jobs = append(jobs, mapJob{fmt.Sprintf("%s cube %d policy %d", name, dim, policy), func() (any, error) {
						return MapPartitioning(p, dim, Options{Policy: policy})
					}})
				}
			}
			jobs = append(jobs, mapJob{name + " mesh 4x2", func() (any, error) {
				return MapPartitioningMesh(p, 4, 2, Options{})
			}})
		}
	}
	for trial := range 20 {
		items := randomItems(rng, 1+rng.Intn(40))
		jobs = append(jobs, mapJob{fmt.Sprintf("random %d cube 3", trial), func() (any, error) {
			return MapItems(items, 3, Options{})
		}})
	}
	return jobs
}

// TestBisectionReuse runs Algorithm 2 on four goroutines that share the
// bisection free list, each walking the jobs in its own order. Every
// mapping must equal the one built with the list empty, and every result
// must still equal it once all mappings are done, so no returned table
// shares pooled memory.
func TestBisectionReuse(t *testing.T) {
	jobs := scratchJobs(t)
	want := make([]any, len(jobs))
	for i, j := range jobs {
		bisectionFree.Clear()
		r, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		want[i] = r
	}

	const workers = 4
	got := make([][]any, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		got[w] = make([]any, len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k*7 + w*13) % len(jobs)
				r, err := jobs[i].run()
				if err == nil && !reflect.DeepEqual(r, want[i]) {
					err = fmt.Errorf("worker %d: %s differs from its build on an empty free list", w, jobs[i].name)
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
				t.Fatalf("worker %d: %s changed after later mappings reused the free list", w, jobs[i].name)
			}
		}
	}
	if again, _ := jobs[0].run(); !reflect.DeepEqual(again, want[0]) {
		t.Fatalf("%s: the first reference changed after later mappings", jobs[0].name)
	}
}
