package project

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/parser"
	"repro/internal/vec"
)

// projectSorted is the reference projection Project must reproduce: the
// sort-based fiber grouping for every box, with the lattice index built
// from the sorted points afterwards.
func projectSorted(st *loop.Structure, pi vec.Int) *Structure {
	ps := &Structure{Orig: st, Pi: pi.Clone(), S: pi.Dot(pi)}
	ps.sortFibers()
	ps.buildIndex()
	ps.projectDeps()
	return ps
}

// checkAgainstSorted asserts that Project is DeepEqual to the reference,
// lattice table included, and that IndexOf agrees on every point and on
// lattice probes around them. It returns the projection.
func checkAgainstSorted(t *testing.T, name string, st *loop.Structure, pi vec.Int) *Structure {
	t.Helper()
	got, err := Project(st, pi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := projectSorted(st, pi)
	switch {
	case !reflect.DeepEqual(got.Points, want.Points):
		t.Fatalf("%s: Points differ:\n got %v\nwant %v", name, got.Points, want.Points)
	case !reflect.DeepEqual(got.Fibers, want.Fibers):
		t.Fatalf("%s: Fibers differ:\n got %v\nwant %v", name, got.Fibers, want.Fibers)
	case !reflect.DeepEqual(got.Deps, want.Deps):
		t.Fatalf("%s: Deps differ", name)
	case got.Dense() != want.Dense():
		t.Fatalf("%s: Dense() = %v, reference %v", name, got.Dense(), want.Dense())
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: structures differ outside Points/Fibers/Deps (lattice index)", name)
	}
	rng := rand.New(rand.NewSource(int64(len(st.V))))
	for i, p := range got.Points {
		if g := got.IndexOf(p); g != i {
			t.Fatalf("%s: IndexOf(point %d) = %d", name, i, g)
		}
		q := p.Clone()
		for _, d := range got.Deps {
			q = q.AddScaled(int64(rng.Intn(5))-2, d.Scaled)
		}
		if g, w := got.IndexOf(q), want.IndexOf(q); g != w {
			t.Fatalf("%s: IndexOf(%v) = %d, reference %d", name, q, g, w)
		}
	}
	return got
}

func kernelStructure(t *testing.T, name string, size int64) (*kernels.Kernel, *loop.Structure) {
	t.Helper()
	k, err := kernels.Lookup(name, size)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	return k, st
}

// TestProjectMatchesSortedKernels covers every built-in kernel at several
// sizes under its own Π and under the Π a SearchPi plan would choose.
func TestProjectMatchesSortedKernels(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, size := range []int64{1, 3, 6, 10} {
			k, st := kernelStructure(t, name, size)
			ps := checkAgainstSorted(t, name, st, k.Pi)
			if !ps.Dense() {
				t.Fatalf("%s size %d: built-in kernel fell back to the map", name, size)
			}
			sch, err := hyperplane.FindOptimal(st, 2)
			if err != nil {
				t.Fatalf("%s: FindOptimal: %v", name, err)
			}
			checkAgainstSorted(t, name+"/searched Π", st, sch.Pi)
		}
	}
}

// TestProjectMatchesSortedParsed covers a parsed nest with affine
// (non-rectangular) bounds, whose fibers have uneven lengths.
func TestProjectMatchesSortedParsed(t *testing.T) {
	nest, err := parser.Parse("skewed", `
for i = 0 to 6
for j = 2*i to 2*i+5
for k = 0 to i
{
  A[i+1, j, k] = A[i, j, k] + A[i, j-1, k]
  B[i, j, k+1] = B[i, j, k] * A[i, j, k]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := loop.NewStructure(nest)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rectangular() {
		t.Fatal("parsed nest should not be rectangular")
	}
	sch, err := hyperplane.FindOptimal(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSorted(t, "parsed", st, sch.Pi)
	checkAgainstSorted(t, "parsed/Π=(2,1,1)", st, vec.NewInt(2, 1, 1))
}

// TestProjectNegativeLeadingPi uses Π whose leading entry is negative:
// enumeration then meets every projection line in descending time, so
// the fibers must be reordered.
func TestProjectNegativeLeadingPi(t *testing.T) {
	st2, err := loop.NewStructure(loop.NewRect("neg2", []int64{0, 0}, []int64{5, 7}), vec.NewInt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	st3, err := loop.NewStructure(loop.NewRect("neg3", []int64{0, 0, 0}, []int64{3, 4, 5}),
		vec.NewInt(0, 0, 1), vec.NewInt(0, 1, 0), vec.NewInt(-1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st *loop.Structure
		pi vec.Int
	}{
		{st2, vec.NewInt(-1, 1)},
		{st2, vec.NewInt(-1, 2)},
		{st3, vec.NewInt(-1, 1, 1)},
		{st3, vec.NewInt(-2, 1, 3)},
	} {
		ps := checkAgainstSorted(t, tc.st.Nest.Name, tc.st, tc.pi)
		long := false
		for _, fib := range ps.Fibers {
			long = long || len(fib) > 1
			for i := 1; i < len(fib); i++ {
				if tc.pi.Dot(tc.st.V[fib[i-1]]) >= tc.pi.Dot(tc.st.V[fib[i]]) {
					t.Fatalf("Π=%v: fiber %v not in time order", tc.pi, fib)
				}
			}
		}
		if !long {
			t.Fatalf("Π=%v: no fiber holds two points; the case tests nothing", tc.pi)
		}
	}
}

// TestProjectOverCapFallback lowers latticeDenseCap so the bucketed path
// must decline, and checks the fallback against the reference and
// against the dense projection of the same structure.
func TestProjectOverCapFallback(t *testing.T) {
	defer func(old int64) { latticeDenseCap = old }(latticeDenseCap)
	for _, name := range []string{"matmul", "l1", "triangular", "stencil"} {
		k, st := kernelStructure(t, name, 5)
		latticeDenseCap = 1 << 22
		dense := checkAgainstSorted(t, name, st, k.Pi)
		latticeDenseCap = 4
		sparse := checkAgainstSorted(t, name+"/over cap", st, k.Pi)
		if !dense.Dense() || sparse.Dense() {
			t.Fatalf("%s: cap override ineffective (dense=%v sparse=%v)", name, dense.Dense(), sparse.Dense())
		}
		if !reflect.DeepEqual(dense.Points, sparse.Points) || !reflect.DeepEqual(dense.Fibers, sparse.Fibers) {
			t.Fatalf("%s: fallback projection differs from the dense one", name)
		}
	}
}

// TestProjectMatchesSortedRandom runs the random rectangular and
// triangular nests of the lattice-index tests through the comparison.
func TestProjectMatchesSortedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		ps, err := buildRandom(rng, trial%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSorted(t, ps.Orig.Nest.Name, ps.Orig, ps.Pi)
	}
}
