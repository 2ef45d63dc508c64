package core

import (
	"fmt"
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
	"repro/internal/project"
	"repro/internal/vec"
)

// mapTIG is the reference TIG: nested maps filled arc by arc in V order.
type mapTIG struct {
	edges []TIGEdge
	out   map[int]map[int]int64
	byDep map[int]map[int]map[int]int64
}

func (m *mapTIG) add(u, v, dep int, w int64) {
	if m.out[u] == nil {
		m.out[u] = map[int]int64{}
	}
	m.out[u][v] += w
	if dep < 0 {
		return
	}
	if m.byDep[u] == nil {
		m.byDep[u] = map[int]map[int]int64{}
	}
	if m.byDep[u][v] == nil {
		m.byDep[u][v] = map[int]int64{}
	}
	m.byDep[u][v][dep] += w
}

func (m *mapTIG) sortEdges() {
	for u, row := range m.out {
		for v, w := range row {
			m.edges = append(m.edges, TIGEdge{From: u, To: v, Weight: w})
		}
	}
	sort.Slice(m.edges, func(i, j int) bool {
		if m.edges[i].From != m.edges[j].From {
			return m.edges[i].From < m.edges[j].From
		}
		return m.edges[i].To < m.edges[j].To
	})
}

// computeBlocks is the reference Step 6: every vertex, projected and
// looked up, takes its projected point's group.
func computeBlocks(p *Partitioning) []int {
	ps := p.PS
	out := make([]int, len(ps.Orig.V))
	for vi, x := range ps.Orig.V {
		out[vi] = int(p.GroupOf[ps.IndexOf(ps.ProjectionOf(x))])
	}
	return out
}

func buildTIGByMaps(p *Partitioning) *mapTIG {
	m := &mapTIG{out: map[int]map[int]int64{}, byDep: map[int]map[int]map[int]int64{}}
	blockOf := computeBlocks(p)
	p.PS.Orig.ForEachEdgeIdx(func(ui, vi, dep int) {
		if gu, gv := blockOf[ui], blockOf[vi]; gu != gv {
			m.add(gu, gv, dep, 1)
		}
	})
	m.sortEdges()
	return m
}

// checkTIGAgainstMaps compares every accessor of t with the reference
// over all block pairs (and one block past each end).
func checkTIGAgainstMaps(t *testing.T, name string, tig *TIG, ref *mapTIG, nDeps int) {
	t.Helper()
	if got := tigEdges(tig); !reflect.DeepEqual(got, ref.edges) {
		t.Fatalf("%s: Edges differ:\n got %v\nwant %v", name, got, ref.edges)
	}
	for u := -1; u <= tig.N; u++ {
		var succ []int
		for v := range ref.out[u] {
			succ = append(succ, v)
		}
		sort.Ints(succ)
		if got := tig.Successors(u); !reflect.DeepEqual(got, succ) {
			t.Fatalf("%s: Successors(%d) = %v, want %v", name, u, got, succ)
		}
		if got := tig.OutDegree(u); got != len(ref.out[u]) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", name, u, got, len(ref.out[u]))
		}
		for v := -1; v <= tig.N; v++ {
			if got, want := tig.Weight(u, v), ref.out[u][v]; got != want {
				t.Fatalf("%s: Weight(%d,%d) = %d, want %d", name, u, v, got, want)
			}
			var want map[int]int64
			if mv, ok := ref.byDep[u][v]; ok {
				want = map[int]int64{}
				for k, w := range mv {
					want[k] = w
				}
			}
			if got := tig.DepBreakdown(u, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DepBreakdown(%d,%d) = %v, want %v", name, u, v, got, want)
			}
			for dep := -1; dep <= nDeps; dep++ {
				if got, want := tig.WeightByDep(u, v, dep), ref.byDep[u][v][dep]; got != want {
					t.Fatalf("%s: WeightByDep(%d,%d,%d) = %d, want %d", name, u, v, dep, got, want)
				}
			}
		}
	}
}

// checkInvariantsByMaps is the reference Lemma-1 check: one pass over V,
// blocks from computeBlocks, with a per-block set of the steps seen so
// far.
func checkInvariantsByMaps(p *Partitioning) error {
	if p.MergeFactor > 1 {
		return nil
	}
	blockOf := computeBlocks(p)
	times := map[int]map[int64]bool{}
	for vi, x := range p.PS.Orig.V {
		g := blockOf[vi]
		t := p.PS.Pi.Dot(x)
		if times[g] == nil {
			times[g] = map[int64]bool{}
		}
		if times[g][t] {
			return fmt.Errorf("block %d executes two index points at step %d (Lemma 1 violated)", g, t)
		}
		times[g][t] = true
	}
	return nil
}

// checkInvariantsByStamps is the reference check on the stamp-array path.
func checkInvariantsByStamps(p *Partitioning) error {
	if p.MergeFactor > 1 {
		return nil
	}
	blockOf := computeBlocks(p)
	if vi, t := stampStepClash(p, blockOf, len(blockOf)); vi >= 0 {
		return fmt.Errorf("block %d executes two index points at step %d (Lemma 1 violated)", blockOf[vi], t)
	}
	return nil
}

// stampSlack is the step range, beyond four steps per vertex, that
// firstStepClash still covers with a stamp array.
var stampSlack int64 = 1024

// stampStepClash is the stamp-array Lemma-1 check the fiber-pair check
// replaced. It returns the smallest vertex index below limit whose block
// already holds a smaller-indexed vertex at the same execution step, with
// that step, or -1. It walks each block's vertices in index order against
// a stamp array over the step range (stamp = block + 1, so it never needs
// clearing); a step range far wider than V sorts each block's steps
// instead.
func stampStepClash(p *Partitioning, blockOf []int, limit int) (int, int64) {
	if limit == 0 {
		return -1, 0
	}
	V, pi := p.PS.Orig.V, p.PS.Pi
	times := make([]int64, limit)
	tmin, tmax := pi.Dot(V[0]), pi.Dot(V[0])
	for vi := range times {
		t := pi.Dot(V[vi])
		times[vi] = t
		tmin, tmax = min(tmin, t), max(tmax, t)
	}
	start, verts := blockVertices(p, blockOf, limit)
	clash := -1
	note := func(vi int32) {
		if clash < 0 || int(vi) < clash {
			clash = int(vi)
		}
	}
	if span := tmax - tmin; span >= 0 && span < 4*int64(limit)+stampSlack {
		stamp := make([]int32, span+1)
		for g := range p.NumBlocks() {
			for _, vi := range verts[start[g]:start[g+1]] {
				k := times[vi] - tmin
				if stamp[k] == int32(g+1) {
					note(vi)
					break
				}
				stamp[k] = int32(g + 1)
			}
		}
	} else {
		for g := range p.NumBlocks() {
			// Sorted by (step, index), the second vertex of each run of
			// equal steps is its block's clash at that step.
			b := verts[start[g]:start[g+1]]
			sort.Slice(b, func(i, j int) bool {
				if ti, tj := times[b[i]], times[b[j]]; ti != tj {
					return ti < tj
				}
				return b[i] < b[j]
			})
			for i := 1; i < len(b); i++ {
				if times[b[i]] == times[b[i-1]] {
					note(b[i])
				}
			}
		}
	}
	if clash < 0 {
		return -1, 0
	}
	return clash, times[clash]
}

// blockVertices buckets the vertex indices below limit by block with a
// stable counting sort: block g holds verts[start[g]:start[g+1]], in
// increasing index order.
func blockVertices(p *Partitioning, blockOf []int, limit int) (start []int, verts []int32) {
	start = make([]int, p.NumBlocks()+1)
	for _, g := range blockOf[:limit] {
		start[g+1]++
	}
	for g := range p.NumBlocks() {
		start[g+1] += start[g]
	}
	next := append([]int(nil), start[:p.NumBlocks()]...)
	verts = make([]int32, limit)
	for vi, g := range blockOf[:limit] {
		verts[next[g]] = int32(vi)
		next[g]++
	}
	return start, verts
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// regrouped returns a copy of p whose groups can be reshaped freely: the
// grouping vector is dropped (so group geometry is not checked) and r is
// lifted, so CheckInvariants reaches its Lemma-1 pass on any regrouping
// that keeps the member tables and GroupOf consistent.
func regrouped(p *Partitioning) *Partitioning {
	q := *p
	q.Grouping = nil
	q.R = 1 << 40
	q.GroupOf = slices.Clone(p.GroupOf)
	q.members = slices.Clone(p.members)
	q.start = slices.Clone(p.start)
	return &q
}

// movePoint moves projected point pt to the end of group to's members,
// rebuilding the member tables.
func (p *Partitioning) movePoint(pt, to int) {
	lists := make([][]int32, p.NumBlocks())
	for g := range lists {
		lists[g] = slices.Clone(p.Members(g))
	}
	from := p.GroupOf[pt]
	lists[from] = slices.DeleteFunc(lists[from], func(m int32) bool { return int(m) == pt })
	lists[to] = append(lists[to], int32(pt))
	p.members, p.start = p.members[:0], p.start[:1]
	for _, l := range lists {
		p.members = append(p.members, l...)
		p.start = append(p.start, int32(len(p.members)))
	}
	p.GroupOf[pt] = int32(to)
}

// checkStepsAgainstMaps compares CheckInvariants with the map and stamp
// references on p and on regroupings of it: projection lines moved to
// other groups, and groups merged wholesale.
func checkStepsAgainstMaps(t *testing.T, name string, p *Partitioning, rng *rand.Rand) {
	t.Helper()
	compare := func(label string, q *Partitioning) {
		t.Helper()
		got := errString(CheckInvariants(q))
		if want := errString(checkInvariantsByMaps(q)); got != want {
			t.Fatalf("%s: CheckInvariants = %s, reference %s", label, got, want)
		}
		if want := errString(checkInvariantsByStamps(q)); got != want {
			t.Fatalf("%s: CheckInvariants = %s, stamp reference %s", label, got, want)
		}
	}
	compare(name, p)
	nP, nB := p.PS.NumPoints(), p.NumBlocks()
	for trial := 0; trial < 12; trial++ {
		q := regrouped(p)
		switch trial % 2 {
		case 0:
			for k := 0; k < 1+rng.Intn(3); k++ {
				q.movePoint(rng.Intn(nP), rng.Intn(nB))
			}
		case 1:
			from, to := rng.Intn(nB), rng.Intn(nB)
			for _, m := range slices.Clone(q.Members(from)) {
				q.movePoint(int(m), to)
			}
		}
		compare(fmt.Sprintf("%s trial %d", name, trial), q)
	}
}

// fiberLists lists every fiber's V indices, in time order.
func fiberLists(ps *project.Structure) [][]int {
	out := make([][]int, len(ps.Fibers))
	for i := range ps.Fibers {
		for _, x := range ps.FiberPoints(i) {
			out[i] = append(out[i], ps.Orig.VertexIndex(x))
		}
	}
	return out
}

// fiberArcsTrim is the arc count the interval intersection replaced: trim
// the fiber from both ends while a point's neighbour along d lies outside
// V.
func fiberArcsTrim(st *loop.Structure, fib []int, d vec.Int) int64 {
	lo, hi := 0, len(fib)-1
	for lo <= hi && st.NeighborIndex(fib[lo], d) < 0 {
		lo++
	}
	for hi > lo && st.NeighborIndex(fib[hi], d) < 0 {
		hi--
	}
	return int64(hi - lo + 1)
}

// checkArcsAndBlocks compares fiberArcs with the trim on every (projected
// point, dependence) pair whose target line exists, and BlockOf with
// computeBlocks.
func checkArcsAndBlocks(t *testing.T, name string, p *Partitioning) {
	t.Helper()
	ps := p.PS
	lists := fiberLists(ps)
	lag := depLags(ps)
	q := make(vec.Int, len(ps.Pi))
	for pt := range ps.NumPoints() {
		for dep, d := range ps.Orig.D {
			qi := lineTarget(ps, pt, dep, q)
			if qi < 0 {
				continue
			}
			if got, want := fiberArcs(ps, pt, qi, lag[dep], ps.Stride()), fiberArcsTrim(ps.Orig, lists[pt], d); got != want {
				t.Fatalf("%s: fiberArcs(point %d, dep %v) = %d, trim %d", name, pt, d, got, want)
			}
		}
	}
	if got, want := p.BlockOf(), computeBlocks(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: BlockOf = %v, reference %v", name, got, want)
	}
}

func checkPartitionings(t *testing.T, name string, ps *project.Structure, rng *rand.Rand) {
	t.Helper()
	for _, merge := range []int64{1, 2, 3} {
		for _, noAux := range []bool{false, true} {
			p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			label := fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux)
			checkTIGAgainstMaps(t, label, BuildTIG(p), buildTIGByMaps(p), len(ps.Orig.D))
			if got, want := BuildTIG(p).EdgeStats(), edgeStatsWalk(p); got != want {
				t.Fatalf("%s: EdgeStats = %+v, walk %+v", label, got, want)
			}
			checkArcsAndBlocks(t, label, p)
			checkStepsAgainstMaps(t, label, p, rng)
		}
	}
}

func projectKernel(t *testing.T, name string, size int64, search bool) *project.Structure {
	t.Helper()
	k, err := kernels.Lookup(name, size)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	pi := k.Pi
	if search {
		sch, err := hyperplane.FindOptimal(st, 2)
		if err != nil {
			t.Fatal(err)
		}
		pi = sch.Pi
	}
	ps, err := project.Project(st, pi)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestTIGAndInvariantsMatchMaps runs the CSR TIG builder, the per-line
// arc counts, the derived BlockOf and the fiber-pair Lemma-1 check against
// their enumerating references over every built-in kernel (own and
// searched Π), a parsed non-rectangular nest, a Π with a negative leading
// entry, and generated nests of every shape.
func TestTIGAndInvariantsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range kernels.Names() {
		for _, size := range []int64{2, 4, 7} {
			checkPartitionings(t, fmt.Sprintf("%s/%d", name, size), projectKernel(t, name, size, false), rng)
			checkPartitionings(t, fmt.Sprintf("%s/%d searched", name, size), projectKernel(t, name, size, true), rng)
		}
	}

	nest, err := parser.Parse("skewed", `
for i = 0 to 5
for j = i to 2*i+4
{
  A[i+1, j] = A[i, j] + A[i, j-1]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := loop.NewStructure(nest)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.FindOptimal(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionings(t, "parsed", ps, rng)

	neg, err := loop.NewStructure(loop.NewRect("neg", []int64{0, 0, 0}, []int64{3, 4, 5}),
		vec.NewInt(0, 0, 1), vec.NewInt(0, 1, 0), vec.NewInt(-1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err = project.Project(neg, vec.NewInt(-1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionings(t, "negative Π", ps, rng)

	checked := 0
	for trial := 0; checked < 80; trial++ {
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
		checkPartitionings(t, c.Name, ps, rng)
		checked++
	}
}

// TestCheckInvariantsSameStepMutation moves one projection line into a
// group that already runs another point at one of its steps; the check
// must fail, with the references' error, and pass again once the line is
// back.
func TestCheckInvariantsSameStepMutation(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	V, pi := p.PS.Orig.V, p.PS.Pi
	blockOf := p.BlockOf()
	a, b := -1, -1
	for i := range V {
		for j := i + 1; j < len(V) && a < 0; j++ {
			if pi.Dot(V[i]) == pi.Dot(V[j]) && blockOf[i] != blockOf[j] {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Fatal("no same-step pair in different blocks")
	}
	q := regrouped(p)
	if err := CheckInvariants(q); err != nil {
		t.Fatalf("regrouped copy fails before the move: %v", err)
	}
	line := p.PS.IndexOf(p.PS.ProjectionOf(V[b]))
	q.movePoint(line, blockOf[a])
	err = CheckInvariants(q)
	if err == nil {
		t.Fatalf("vertices %v and %v share step %d in block %d, yet the check passed",
			V[a], V[b], pi.Dot(V[a]), blockOf[a])
	}
	if want := checkInvariantsByMaps(q); errString(err) != errString(want) {
		t.Fatalf("CheckInvariants = %v, reference %v", err, want)
	}
	q.movePoint(line, blockOf[b])
	if err := CheckInvariants(q); err != nil {
		t.Fatalf("restored partitioning fails: %v", err)
	}
}

// TestCheckInvariantsWideStepRange schedules a small structure with a Π
// whose step range is far wider than V, so the check takes its sorting
// path, and compares it with the reference on mutations. The dependence
// is parallel to Π, so every point is its own group and r stays 1.
func TestCheckInvariantsWideStepRange(t *testing.T) {
	st, err := loop.NewStructure(loop.NewRect("wide", []int64{0, 0}, []int64{5, 5}), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, vec.NewInt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionings(t, "wide", ps, rand.New(rand.NewSource(9)))
}

// TestCheckInvariantsSortPathMatchesMaps forces the sorting path of the
// stamp reference on every built-in kernel, and compares the fiber-pair
// check with it and with the map reference on the same regroupings as
// the stamp path.
func TestCheckInvariantsSortPathMatchesMaps(t *testing.T) {
	defer func(old int64) { stampSlack = old }(stampSlack)
	stampSlack = -1 << 40
	rng := rand.New(rand.NewSource(8))
	for _, name := range kernels.Names() {
		ps := projectKernel(t, name, 4, false)
		for _, merge := range []int64{1, 3} {
			p, err := Partition(ps, Options{MergeFactor: merge})
			if err != nil {
				t.Fatal(err)
			}
			checkStepsAgainstMaps(t, fmt.Sprintf("%s merge=%d", name, merge), p, rng)
		}
	}
}

// TestNewTIGMatchesMaps compares NewTIG with the map reference on random
// synthetic edge lists with parallel and zero-weight edges.
func TestNewTIGMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		var edges []TIGEdge
		ref := &mapTIG{out: map[int]map[int]int64{}}
		for k := rng.Intn(20); k > 0; k-- {
			e := TIGEdge{From: rng.Intn(n), To: rng.Intn(n + 2), Weight: int64(rng.Intn(4))}
			edges = append(edges, e)
			ref.add(e.From, e.To, -1, e.Weight)
		}
		ref.sortEdges()
		checkTIGAgainstMaps(t, fmt.Sprintf("trial %d", trial), NewTIG(n, make([]int64, n), edges), ref, 2)
	}
}
