package project

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/parser"
	"repro/internal/vec"
)

// refProjection is what an enumerating projection produces: the distinct
// scaled points in lexicographic order and, per point, the V indices of
// its projection line in time order.
type refProjection struct {
	points  []vec.Int
	fibers  [][]int
	lattice *latticeIndex
}

// bucketFibers is the bucketing projection the closed-form line tracing
// replaced. It builds the points, fibers and dense lattice index in time
// linear in |V|: one pass finds the bounding box of the scaled
// projections, a second gives every vertex its lattice table slot (the
// first vertex to reach a slot claims it for a new point), and only the
// |V^p| distinct points are sorted. Fibers are then filled in enumeration
// order and put in execution-time order, which costs O(len) per fiber
// because enumeration walks each projection line monotonically. It
// reports false when V is empty or the box exceeds
// latticeDenseCap.
func bucketFibers(st *loop.Structure, pi vec.Int) (r refProjection, ok bool) {
	V, s := st.V, pi.Dot(pi)
	n, nV := len(pi), len(V)
	if nV == 0 {
		return r, false
	}
	times := make([]int64, nV)
	lo := make([]int64, n)
	hi := make([]int64, n)
	for vi, x := range V {
		t := x.Dot(pi)
		times[vi] = t
		for j, xj := range x {
			y := s*xj - pi[j]*t
			if vi == 0 || y < lo[j] {
				lo[j] = y
			}
			if vi == 0 || y > hi[j] {
				hi[j] = y
			}
		}
	}
	li := newLatticeIndex(pi, lo, hi)
	if li == nil {
		return r, false
	}

	// Slot pass: ids[vi] is the vertex's point in first-seen order, reps
	// the first vertex of each point, slots its table slot.
	ids := make([]int32, nV)
	var reps []int
	var slots []int64
	var counts []int
	for vi, x := range V {
		t := times[vi]
		var off int64
		for j, xj := range x {
			if j != li.drop {
				off += (s*xj - pi[j]*t - lo[j]) * li.strides[j]
			}
		}
		id := li.table[off] - 1
		if id < 0 {
			id = int32(len(reps))
			li.table[off] = id + 1
			reps = append(reps, vi)
			slots = append(slots, off)
			counts = append(counts, 0)
		}
		ids[vi] = id
		counts[id]++
	}

	// Sort the distinct points and renumber the table by rank.
	np := len(reps)
	pts := make([]int64, np*n)
	for id, vi := range reps {
		t := times[vi]
		for j, xj := range V[vi] {
			pts[id*n+j] = s*xj - pi[j]*t
		}
	}
	order := make([]int, np)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra := pts[order[a]*n : order[a]*n+n]
		rb := pts[order[b]*n : order[b]*n+n]
		for j := range ra {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return false
	})
	rank := make([]int32, np)
	r.points = make([]vec.Int, np)
	for rk, id := range order {
		rank[id] = int32(rk)
		li.table[slots[id]] = int32(rk) + 1
		r.points[rk] = pts[id*n : id*n+n : id*n+n]
	}

	// Counting pass: fibers in enumeration order, then by time.
	start := make([]int, np+1)
	for id, c := range counts {
		start[rank[id]+1] = c
	}
	for rk := 0; rk < np; rk++ {
		start[rk+1] += start[rk]
	}
	flat := make([]int, nV)
	next := append([]int(nil), start[:np]...)
	for vi, id := range ids {
		rk := rank[id]
		flat[next[rk]] = vi
		next[rk]++
	}
	r.fibers = make([][]int, np)
	for rk := range r.fibers {
		fib := flat[start[rk]:start[rk+1]:start[rk+1]]
		sortByTime(fib, times)
		r.fibers[rk] = fib
	}
	r.lattice = li
	return r, true
}

// sortByTime orders a fiber by execution time. The vertices of one
// projection line have distinct times, and a lexicographic enumeration
// meets them in monotone time order, so reversing a descending fiber
// leaves the insertion sort a single linear pass.
func sortByTime(fib []int, times []int64) {
	if len(fib) > 1 && times[fib[0]] > times[fib[len(fib)-1]] {
		for i, j := 0, len(fib)-1; i < j; i, j = i+1, j-1 {
			fib[i], fib[j] = fib[j], fib[i]
		}
	}
	for i := 1; i < len(fib); i++ {
		v := fib[i]
		j := i
		for ; j > 0 && times[fib[j-1]] > times[v]; j-- {
			fib[j] = fib[j-1]
		}
		fib[j] = v
	}
}

// sortFibers is the reference projection: it projects every
// vertex into one flat buffer and sorts vertex ids by (scaled projection,
// execution time), so equal projections become adjacent runs. It costs
// O(V·n·log V) and needs no table, so it serves any bounding box.
func sortFibers(st *loop.Structure, pi vec.Int) (r refProjection) {
	V, s := st.V, pi.Dot(pi)
	n := len(pi)
	nV := len(V)
	buf := make([]int64, nV*n)
	times := make([]int64, nV)
	order := make([]int, nV)
	for vi, x := range V {
		t := x.Dot(pi)
		times[vi] = t
		row := buf[vi*n : vi*n+n]
		for j, xj := range x {
			row[j] = s*xj - pi[j]*t
		}
		order[vi] = vi
	}
	sort.Slice(order, func(a, b int) bool {
		ra := buf[order[a]*n : order[a]*n+n]
		rb := buf[order[b]*n : order[b]*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return times[order[a]] < times[order[b]]
	})
	sameRow := func(a, b int) bool {
		ra := buf[a*n : a*n+n]
		rb := buf[b*n : b*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < nV; {
		vi := order[i]
		// Copy the unique projection out of buf so the big per-vertex
		// buffer is not pinned by the (much smaller) point set.
		r.points = append(r.points, vec.Int(buf[vi*n:vi*n+n]).Clone())
		j := i
		for j < nV && sameRow(vi, order[j]) {
			j++
		}
		fib := make([]int, j-i)
		copy(fib, order[i:j])
		r.fibers = append(r.fibers, fib)
		i = j
	}
	return r
}

// pointList lists the structure's points as separate vectors, in order.
func pointList(ps *Structure) []vec.Int {
	out := make([]vec.Int, ps.NumPoints())
	for i := range out {
		out[i] = ps.Point(i)
	}
	return out
}

// buildIndex is the reference for the index sortLines lays while it
// sorts: it builds the lattice index over the points from their bounding
// box, or the string-keyed map when the reduced box exceeds
// latticeDenseCap. A structure without points gets no index.
func (ps *Structure) buildIndex() {
	n, np := len(ps.Pi), ps.NumPoints()
	if np == 0 {
		return
	}
	lo := slices.Clone(ps.Point(0))
	hi := slices.Clone(ps.Point(0))
	for i := range np {
		for j, x := range ps.Point(i) {
			lo[j], hi[j] = min(lo[j], x), max(hi[j], x)
		}
	}
	if li := newLatticeIndex(ps.Pi, lo, hi); li != nil {
		for i := range np {
			li.table[li.offset(ps.coords[i*n:i*n+n])] = int32(i) + 1
		}
		ps.lattice = li
		return
	}
	ps.mapIndex()
}

// expandFibers lists, per projected point, the V indices of its line's
// points as the compact fiber names them: V[X0] + t·U for t < Len.
func expandFibers(t *testing.T, ps *Structure) [][]int {
	t.Helper()
	var out [][]int
	for i := range ps.Fibers {
		var fib []int
		for _, x := range ps.FiberPoints(i) {
			vi := ps.Orig.VertexIndex(x)
			if vi < 0 {
				t.Fatalf("fiber %d (%+v) runs outside V at %v", i, ps.Fibers[i], x)
			}
			fib = append(fib, vi)
		}
		out = append(out, fib)
	}
	return out
}

// checkAgainstSorted asserts that Project agrees with the sort-based
// reference — the same points in the same order, each fiber naming the
// same V indices in the same time order, first times T0 = Π·x0 — and with
// the bucketing projection, lattice table included, whenever that applies.
// IndexOf must agree with the reference index on every point and on
// lattice probes around them, and the line graph with checkLineGraph. It
// returns the projection.
func checkAgainstSorted(t *testing.T, name string, st *loop.Structure, pi vec.Int) *Structure {
	t.Helper()
	got, err := Project(st, pi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := sortFibers(st, pi)
	if points := pointList(got); !reflect.DeepEqual(points, want.points) {
		t.Fatalf("%s: points differ:\n got %v\nwant %v", name, points, want.points)
	}
	if fibers := expandFibers(t, got); !reflect.DeepEqual(fibers, want.fibers) {
		t.Fatalf("%s: Fibers differ:\n got %v\nwant %v", name, fibers, want.fibers)
	}
	for i, f := range got.Fibers {
		if f.T0 != pi.Dot(st.V[f.X0]) {
			t.Fatalf("%s: fiber %d T0 = %d, Π·x0 = %d", name, i, f.T0, pi.Dot(st.V[f.X0]))
		}
	}
	for vi, pt := range got.LineOf() {
		if ref := got.IndexOf(got.ProjectionOf(st.V[vi])); pt != ref {
			t.Fatalf("%s: LineOf()[%d] = %d, projected lookup %d", name, vi, pt, ref)
		}
	}
	ref := &Structure{Orig: st, Pi: pi.Clone(), S: pi.Dot(pi), Points: make([]struct{}, len(want.points))}
	for _, p := range want.points {
		ref.coords = append(ref.coords, p...)
	}
	ref.buildIndex()
	ref.projectDeps()
	switch {
	case !reflect.DeepEqual(got.Deps, ref.Deps):
		t.Fatalf("%s: Deps differ", name)
	case got.Dense() != ref.Dense():
		t.Fatalf("%s: Dense() = %v, reference %v", name, got.Dense(), ref.Dense())
	case !reflect.DeepEqual(got.lattice, ref.lattice) || !reflect.DeepEqual(got.index, ref.index):
		t.Fatalf("%s: lattice index differs from the reference", name)
	}
	if bucket, ok := bucketFibers(st, pi); ok {
		if !reflect.DeepEqual(bucket.points, want.points) || !reflect.DeepEqual(bucket.fibers, want.fibers) {
			t.Fatalf("%s: bucketFibers disagrees with sortFibers", name)
		}
		if !reflect.DeepEqual(got.lattice, bucket.lattice) {
			t.Fatalf("%s: lattice index differs from bucketFibers'", name)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(st.V))))
	for i, p := range pointList(got) {
		if g := got.IndexOf(p); g != i {
			t.Fatalf("%s: IndexOf(point %d) = %d", name, i, g)
		}
		q := p.Clone()
		for _, d := range got.Deps {
			q = q.AddScaled(int64(rng.Intn(5))-2, d.Scaled)
		}
		if g, w := got.IndexOf(q), ref.IndexOf(q); g != w {
			t.Fatalf("%s: IndexOf(%v) = %d, reference %d", name, q, g, w)
		}
	}
	checkLineGraph(t, name, got)
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
// enumeration then meets every projection line in descending time, while
// each fiber must still run in increasing time.
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
		for _, fib := range expandFibers(t, ps) {
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

// TestProjectOverCapFallback lowers latticeDenseCap so the projection must
// fall back to the map index, and checks the fallback against the
// reference and against the dense projection of the same structure.
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
		if !reflect.DeepEqual(pointList(dense), pointList(sparse)) || !reflect.DeepEqual(dense.Fibers, sparse.Fibers) {
			t.Fatalf("%s: fallback projection differs from the dense one", name)
		}
	}
}

// TestProjectMatchesSortedRandom runs generated nests of every shape,
// in two and three dimensions, under generated Π (negative entries and
// non-primitive Π included) and under fixed Π such as (2, 1), (2, 2) and
// (−2, 4), through the comparison.
func TestProjectMatchesSortedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for trial := 0; checked < 300; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSorted(t, c.Name, st, c.Pi)
		checked++
	}
	for _, kind := range nestgen.Kinds {
		n := nestgen.Nest(rng, kind, 2)
		st, err := loop.NewStructure(n, vec.NewInt(0, 1), vec.NewInt(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.V) == 0 {
			continue
		}
		for _, pi := range []vec.Int{vec.NewInt(2, 1), vec.NewInt(2, 2), vec.NewInt(3, 1), vec.NewInt(-1, 2), vec.NewInt(-2, 4)} {
			checkAgainstSorted(t, kind.String()+"/Π="+pi.String(), st, pi)
		}
	}
}
