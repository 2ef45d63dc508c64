package kernels

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/loop"
	"repro/internal/vec"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"closure", "convolution", "dct", "l1", "matmul", "matvec", "sor2d", "stencil", "triangular"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAllKernelsStructurallySound(t *testing.T) {
	for _, name := range Names() {
		k := Registry[name](4)
		st, err := k.Structure()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := k.Nest.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := hyperplane.Check(k.Pi, st.D); err != nil {
			t.Fatalf("%s: recommended Π invalid: %v", name, err)
		}
	}
}

func TestDerivedDepsMatchExplicit(t *testing.T) {
	// The dependence analyzer must derive exactly the kernel's stated
	// dependence matrix from the statement accesses.
	for _, name := range Names() {
		k := Registry[name](4)
		derived := k.Nest.Dependences()
		if len(derived) != len(k.Deps) {
			t.Fatalf("%s: derived %d deps %v, stated %d %v", name, len(derived), derived, len(k.Deps), k.Deps)
		}
		stated := map[string]bool{}
		for _, d := range k.Deps {
			stated[d.Key()] = true
		}
		for _, d := range derived {
			if !stated[d.Key()] {
				t.Fatalf("%s: derived dep %v not in stated matrix", name, d)
			}
		}
	}
}

func TestL1DependenceMatrix(t *testing.T) {
	k := L1(3)
	want := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	if len(k.Deps) != 3 {
		t.Fatalf("deps = %v", k.Deps)
	}
	for i := range want {
		found := false
		for _, d := range k.Deps {
			if d.Equal(want[i]) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing dep %v", want[i])
		}
	}
}

func TestMatMulSequentialMatchesReference(t *testing.T) {
	const size = 5
	k := MatMul(size)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	// The C values exit along dep 0 = (0,0,1) at k = size-1, points sorted
	// lexicographically: (0,0), (0,1), ..., row-major over (i,j).
	exits := res.ExitValues(st, 0)
	ref := MatMulReference(size)
	if len(exits) != size*size {
		t.Fatalf("exits = %d", len(exits))
	}
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			got := exits[i*size+j]
			if math.Abs(got-ref[i][j]) > 1e-12 {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, got, ref[i][j])
			}
		}
	}
}

func TestMatVecSequentialMatchesReference(t *testing.T) {
	const m = 7
	k := MatVec(m)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	exits := res.ExitValues(st, 0) // y leaves along (0,1) at j = m
	ref := MatVecReference(m)
	if len(exits) != m {
		t.Fatalf("exits = %d", len(exits))
	}
	for i := range ref {
		if math.Abs(exits[i]-ref[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, exits[i], ref[i])
		}
	}
}

func TestConvolutionSequentialMatchesReference(t *testing.T) {
	const n, taps = 9, 4
	k := Convolution(n, taps)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	exits := res.ExitValues(st, 0)
	ref := ConvolutionReference(n, taps)
	if len(exits) != n {
		t.Fatalf("exits = %d, want %d", len(exits), n)
	}
	for i := range ref {
		if math.Abs(exits[i]-ref[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, exits[i], ref[i])
		}
	}
}

func TestStencilSequentialMatchesReference(t *testing.T) {
	const steps, width = 6, 8
	k := Stencil(steps, width)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	// Final u values leave along dep1 = (1,0) at t = steps-1.
	exits := res.ExitValues(st, 1)
	ref := StencilReference(steps, width)
	if len(exits) != width {
		t.Fatalf("exits = %d, want %d", len(exits), width)
	}
	for i := range ref {
		if math.Abs(exits[i]-ref[i]) > 1e-12 {
			t.Fatalf("u[%d] = %v, want %v", i, exits[i], ref[i])
		}
	}
}

func TestClosureSequentialMatchesReference(t *testing.T) {
	const size = 6
	k := Closure(size)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	exits := res.ExitValues(st, 0)
	ref := ClosureReference(size)
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if exits[i*size+j] != ref[i][j] {
				t.Fatalf("closure[%d][%d] = %v, want %v", i, j, exits[i*size+j], ref[i][j])
			}
		}
	}
}

func TestSOR2DSequentialMatchesReference(t *testing.T) {
	const steps, width = 4, 6
	k := SOR2D(steps, width)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	// The final grid leaves along dep 2 = (1,0,0) at t = steps-1, in
	// row-major (i,j) order.
	exits := res.ExitValues(st, 2)
	ref := SOR2DReference(steps, width)
	if len(exits) != width*width {
		t.Fatalf("exits = %d", len(exits))
	}
	for i := range ref {
		if math.Abs(exits[i]-ref[i]) > 1e-12 {
			t.Fatalf("u[%d] = %v, want %v", i, exits[i], ref[i])
		}
	}
}

func TestTriangularKernelShape(t *testing.T) {
	k := Triangular(5)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.V) != 15 { // 1+2+3+4+5
		t.Fatalf("|V| = %d, want 15", len(st.V))
	}
	if _, err := RunSequential(k); err != nil {
		t.Fatal(err)
	}
}

func TestGenericRederivesDeps(t *testing.T) {
	nest := loop.NewRect("g", []int64{0, 0}, []int64{3, 3})
	deps := []vec.Int{vec.NewInt(1, 2), vec.NewInt(0, 1)}
	k := Generic("g", nest, deps, vec.NewInt(1, 1), 7)
	derived := nest.Dependences()
	if len(derived) != 2 {
		t.Fatalf("derived = %v", derived)
	}
	if _, err := RunSequential(k); err != nil {
		t.Fatal(err)
	}
}

func TestGenericRejectsLexNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lex-negative dependence accepted")
		}
	}()
	Generic("bad", loop.NewRect("b", []int64{0}, []int64{3}), []vec.Int{vec.NewInt(-1)}, vec.NewInt(1), 1)
}

func TestDCTSequentialRuns(t *testing.T) {
	k := DCT(6)
	res, err := RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := k.Structure()
	exits := res.ExitValues(st, 0)
	if len(exits) != 6 {
		t.Fatalf("exits = %d", len(exits))
	}
	// DCT of a nonzero vector should not be identically zero.
	allZero := true
	for _, v := range exits {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("DCT output identically zero")
	}
}

func TestResultEqual(t *testing.T) {
	a := &Result{Out: map[string][]float64{"0,0": {1, 2}}}
	b := &Result{Out: map[string][]float64{"0,0": {1, 2}}}
	if !a.Equal(b) {
		t.Fatal("equal results reported unequal")
	}
	b.Out["0,0"][1] = 3
	if a.Equal(b) {
		t.Fatal("different results reported equal")
	}
	c := &Result{Out: map[string][]float64{"0,1": {1, 2}}}
	if a.Equal(c) {
		t.Fatal("different keys reported equal")
	}
	d := &Result{Out: map[string][]float64{"0,0": {1}}}
	if a.Equal(d) {
		t.Fatal("different arity reported equal")
	}
}

func TestRunSequentialNoSemantics(t *testing.T) {
	k := L1(3)
	k.Sem = nil
	if _, err := RunSequential(k); err == nil {
		t.Fatal("kernel without semantics accepted")
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a := dataVector(123, 10)
	b := dataVector(123, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dataVector not deterministic")
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("value %v out of [-1,1)", a[i])
		}
	}
	c := dataVector(124, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestLookupDoesNotBuildInputMatrices checks that the matrix kernels fill
// their input data on first use by the semantics, not at lookup: looking
// one up at size 64 costs far fewer allocations than the matrix's 64
// rows, and the semantics still read the seeded data.
func TestLookupDoesNotBuildInputMatrices(t *testing.T) {
	for _, name := range []string{"closure", "matmul", "matvec", "sor2d"} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Lookup(name, 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 64 {
			t.Errorf("%s: Lookup(64) makes %v allocations, want fewer than the 64 rows of one input matrix", name, allocs)
		}
	}
	k, err := Lookup("matvec", 3)
	if err != nil {
		t.Fatal(err)
	}
	m := dataMatrix(303, 4, 4)
	in := []float64{1, 2}
	if got, want := k.Sem.Compute(vec.NewInt(1, 2), in)[0], 1+m[1][2]*2; got != want {
		t.Fatalf("matvec Compute at (1,2) = %v, want %v from the seeded matrix", got, want)
	}
}

// TestKernelRetainedBytesTracksHeap checks that RetainedBytes stays within
// [0.85, 1.30] of the live heap a looked-up kernel pins, for every
// built-in kernel at two sizes, so the plan cache's stage charge counts
// the kernel it keeps. It checks kernels again once the input matrices
// matmul, matvec, closure and sor2d read lazily are built (readInputs),
// as a sequential run or an execution builds them.
func TestKernelRetainedBytesTracksHeap(t *testing.T) {
	for _, name := range Names() {
		for _, size := range []int64{8, 20} {
			for _, run := range []bool{false, true} {
				keep := make([]*Kernel, 200)
				var before, after runtime.MemStats
				// Two collections: the second frees what the first only
				// moved out of the pools' victim caches, which a run fills.
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				for i := range keep {
					keep[i], _ = Lookup(name, size)
					if run {
						readInputs(t, keep[i])
					}
				}
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(keep))
				ratio := float64(keep[0].RetainedBytes()) / live
				runtime.KeepAlive(keep)
				if ratio < 0.85 || ratio > 1.30 {
					t.Errorf("%s/%d (after a run: %v): RetainedBytes %d is %.3f× the %.0f B a kernel pins, want within [0.85, 1.30]",
						name, size, run, keep[0].RetainedBytes(), ratio, live)
				}
				if run {
					t.Logf("%s/%d after a run: RetainedBytes %d, %.0f B live, ratio %.3f", name, size, keep[0].RetainedBytes(), live, ratio)
				}
			}
		}
	}
}

// readInputs builds a kernel's lazily read input matrices without running
// it: at the first vertex, every dependence's boundary value and the
// computation read them all (each matrix is built whole on its first
// read).
func readInputs(t *testing.T, k *Kernel) {
	t.Helper()
	if k.Sem == nil {
		return
	}
	var x vec.Int
	if k.Nest.ForEachUntil(func(p vec.Int) bool { x = p; return false }) {
		t.Fatalf("%s: empty index set", k.Name)
	}
	in := make([]float64, len(k.Deps))
	for di := range in {
		in[di] = k.Sem.Boundary(x, di)
	}
	k.Sem.Compute(x, in)
}
