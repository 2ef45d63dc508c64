package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
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

func buildTIGByMaps(p *Partitioning) *mapTIG {
	m := &mapTIG{out: map[int]map[int]int64{}, byDep: map[int]map[int]map[int]int64{}}
	p.PS.Orig.ForEachEdgeIdx(func(ui, vi, dep int) {
		if gu, gv := p.BlockOf[ui], p.BlockOf[vi]; gu != gv {
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
	if !reflect.DeepEqual(tig.Edges, ref.edges) {
		t.Fatalf("%s: Edges differ:\n got %v\nwant %v", name, tig.Edges, ref.edges)
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

// checkInvariantsByMaps is the reference Lemma-1 check: one pass over V
// with a per-block set of the steps seen so far.
func checkInvariantsByMaps(p *Partitioning) error {
	times := map[int]map[int64]bool{}
	for vi, x := range p.PS.Orig.V {
		g := p.BlockOf[vi]
		if g < 0 || g >= len(p.Groups) {
			return fmt.Errorf("vertex %v has invalid block %d", x, g)
		}
		if p.MergeFactor > 1 {
			continue
		}
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

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkStepsAgainstMaps compares CheckInvariants with the reference on p
// and on BlockOf mutations: vertices moved to other blocks, blocks merged
// wholesale, and out-of-range blocks. Group structure is left intact, so
// both checks reach the Lemma-1 pass.
func checkStepsAgainstMaps(t *testing.T, name string, p *Partitioning, rng *rand.Rand) {
	t.Helper()
	if got, want := errString(CheckInvariants(p)), errString(checkInvariantsByMaps(p)); got != want {
		t.Fatalf("%s: CheckInvariants = %s, reference %s", name, got, want)
	}
	saved := append([]int(nil), p.BlockOf...)
	defer copy(p.BlockOf, saved)
	nV, nB := len(p.BlockOf), len(p.Groups)
	for trial := 0; trial < 12; trial++ {
		copy(p.BlockOf, saved)
		switch trial % 3 {
		case 0:
			for k := 0; k < 1+rng.Intn(3); k++ {
				p.BlockOf[rng.Intn(nV)] = rng.Intn(nB)
			}
		case 1:
			from, to := rng.Intn(nB), rng.Intn(nB)
			for vi, g := range p.BlockOf {
				if g == from {
					p.BlockOf[vi] = to
				}
			}
		case 2:
			p.BlockOf[rng.Intn(nV)] = rng.Intn(nB)
			p.BlockOf[rng.Intn(nV)] = []int{-1, nB, nB + 5}[rng.Intn(3)]
		}
		if got, want := errString(CheckInvariants(p)), errString(checkInvariantsByMaps(p)); got != want {
			t.Fatalf("%s trial %d: CheckInvariants = %s, reference %s", name, trial, got, want)
		}
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
			if got, want := p.EdgeStats(), edgeStatsWalk(p); got != want {
				t.Fatalf("%s: EdgeStats = %+v, walk %+v", label, got, want)
			}
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

// TestTIGAndInvariantsMatchMaps runs the CSR TIG builder and the stamp
// Lemma-1 check against their map-based references over every built-in
// kernel (own and searched Π), a parsed non-rectangular nest, and a Π
// with a negative leading entry.
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
}

// TestCheckInvariantsSameStepMutation puts two points of one step into
// one block; the check must fail, with the reference's error.
func TestCheckInvariantsSameStepMutation(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(p); err != nil {
		t.Fatal(err)
	}
	V, pi := p.PS.Orig.V, p.PS.Pi
	a, b := -1, -1
	for i := range V {
		for j := i + 1; j < len(V) && a < 0; j++ {
			if pi.Dot(V[i]) == pi.Dot(V[j]) && p.BlockOf[i] != p.BlockOf[j] {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Fatal("no same-step pair in different blocks")
	}
	saved := p.BlockOf[b]
	p.BlockOf[b] = p.BlockOf[a]
	err = CheckInvariants(p)
	if err == nil {
		t.Fatalf("vertices %v and %v share step %d in block %d, yet the check passed",
			V[a], V[b], pi.Dot(V[a]), p.BlockOf[a])
	}
	if want := checkInvariantsByMaps(p); errString(err) != errString(want) {
		t.Fatalf("CheckInvariants = %v, reference %v", err, want)
	}
	p.BlockOf[b] = saved
	if err := CheckInvariants(p); err != nil {
		t.Fatalf("restored partitioning fails: %v", err)
	}
}

// TestBuildTIGRejectsDriftedBlockOf moves one vertex to another block in
// BlockOf only: BuildTIG reads blocks through Groups and the fibers, so it
// must refuse rather than build a TIG the BlockOf readers disagree with.
func TestBuildTIGRejectsDriftedBlockOf(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 2 {
		t.Fatalf("want at least 2 blocks, got %d", len(p.Groups))
	}
	vi := len(p.BlockOf) / 2
	p.BlockOf[vi] = (p.BlockOf[vi] + 1) % len(p.Groups)
	defer func() {
		if recover() == nil {
			t.Fatal("BuildTIG accepted a BlockOf that disagrees with Groups")
		}
	}()
	BuildTIG(p)
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
// Lemma-1 check on every built-in kernel and compares it with the
// reference on the same mutations as the stamp path.
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
