package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
	"repro/internal/vec"
)

// edgeTIG is the TIG as an array of TIGEdge records, sorted by (From,
// To), with int row offsets into it — the layout the flat tables
// replaced. Its per-dependence weights are either a table (depW[e*nDeps+
// dep] is the part of edges[e]'s weight carried by dependence dep) or,
// when depW is nil, re-summed from part's line graph.
type edgeTIG struct {
	n        int
	loads    []int64
	edges    []TIGEdge
	rowStart []int
	arcs     int64
	part     *Partitioning
	depW     []int64
	nDeps    int
}

// edge returns the position in edges of the edge u → v, or -1.
func (t *edgeTIG) edge(u, v int) int {
	if u < 0 || u >= t.n {
		return -1
	}
	for e := t.rowStart[u]; e < t.rowStart[u+1]; e++ {
		if t.edges[e].To == v {
			return e
		}
	}
	return -1
}

func (t *edgeTIG) weight(u, v int) int64 {
	if e := t.edge(u, v); e >= 0 {
		return t.edges[e].Weight
	}
	return 0
}

func (t *edgeTIG) successors(u int) []int {
	var out []int
	if u >= 0 && u < t.n {
		for _, e := range t.edges[t.rowStart[u]:t.rowStart[u+1]] {
			out = append(out, e.To)
		}
	}
	return out
}

func (t *edgeTIG) maxOutDegree() int {
	mx := 0
	for u := range t.n {
		mx = max(mx, t.rowStart[u+1]-t.rowStart[u])
	}
	return mx
}

func (t *edgeTIG) edgeStats() DepEdgeStats {
	var traffic int64
	for _, e := range t.edges {
		traffic += e.Weight
	}
	return DepEdgeStats{Total: int(t.arcs), InterBlock: int(traffic)}
}

// depBreakdown returns the per-dependence volumes from u to v, nil when
// there is no edge.
func (t *edgeTIG) depBreakdown(u, v int) map[int]int64 {
	e := t.edge(u, v)
	if e < 0 {
		return nil
	}
	out := map[int]int64{}
	if t.depW != nil {
		for dep, w := range t.depW[e*t.nDeps : (e+1)*t.nDeps] {
			if w != 0 {
				out[dep] = w
			}
		}
		return out
	}
	for _, pt := range t.part.Members(u) {
		for dep, a := range t.part.PS.Line(int(pt)) {
			if a.To >= 0 && a.Arcs != 0 && int(t.part.GroupOf[a.To]) == v {
				out[dep] += int64(a.Arcs)
			}
		}
	}
	return out
}

// buildTIGByEdges is BuildTIG as it was before the flat tables: the same
// two walks over the line graph, filling TIGEdge records.
func buildTIGByEdges(p *Partitioning) *edgeTIG {
	ps := p.PS
	n := p.NumBlocks()
	t := &edgeTIG{n: n, part: p, nDeps: len(ps.Deps)}
	t.loads = make([]int64, n)
	t.rowStart = make([]int, n+1)
	marks := make([]int32, 2*n)
	stamp, slot := marks[:n:n], marks[n:]
	for u := range n {
		targets := 0
		for _, pt := range p.Members(u) {
			t.loads[u] += int64(ps.Fibers[pt].Len)
			for _, a := range ps.Line(int(pt)) {
				if a.To < 0 {
					continue
				}
				t.arcs += int64(a.Arcs)
				if v := p.GroupOf[a.To]; int(v) != u && a.Arcs != 0 && stamp[v] != int32(u+1) {
					stamp[v] = int32(u + 1)
					targets++
				}
			}
		}
		t.rowStart[u+1] = t.rowStart[u] + targets
	}
	if t.rowStart[n] > 0 {
		t.edges = make([]TIGEdge, 0, t.rowStart[n])
	}
	for u := range n {
		row := len(t.edges)
		for _, pt := range p.Members(u) {
			for _, a := range ps.Line(int(pt)) {
				if a.To < 0 || a.Arcs == 0 {
					continue
				}
				v := p.GroupOf[a.To]
				if int(v) == u {
					continue
				}
				if stamp[v] != -int32(u+1) {
					stamp[v] = -int32(u + 1)
					slot[v] = int32(len(t.edges))
					t.edges = append(t.edges, TIGEdge{From: u, To: int(v)})
				}
				t.edges[slot[v]].Weight += int64(a.Arcs)
			}
		}
		slices.SortFunc(t.edges[row:], func(a, b TIGEdge) int { return a.To - b.To })
	}
	return t
}

// lineTarget returns the projected point x^p + d^p for x^p = ps.Point(pt)
// and d = ps.Deps[dep], or -1 when no index point projects there. q is
// scratch of the structure's dimension.
func lineTarget(ps *project.Structure, pt, dep int, q vec.Int) int {
	d := ps.Deps[dep].Scaled
	for k, x := range ps.Point(pt) {
		q[k] = x + d[k]
	}
	return ps.IndexOf(q)
}

// depLags returns Π·d for every dependence d, the time an arc spans.
func depLags(ps *project.Structure) []int64 {
	lag := make([]int64, len(ps.Deps))
	for dep, d := range ps.Deps {
		lag[dep] = ps.Pi.Dot(d.Orig)
	}
	return lag
}

// fiberArcs counts the dependence arcs of lag Π·d that leave the fiber of
// projected point pt; projection is linear, so all of them land on the
// fiber qi of x^p + d^p (lineTarget). Both fibers step by u, one stride
// w = Π·u of time apart: point t of pt runs at T0 + t·w, and its arc
// reaches time T0 + t·w + Π·d, which is point t + k of qi with
// k = (T0 + Π·d − T0')/w. The arcs are the t in [0, Len) whose t + k
// falls in [0, Len'), so the count is one interval intersection. w is
// ps.Stride(), passed in so a loop over pairs computes it once.
func fiberArcs(ps *project.Structure, pt, qi int, lag, w int64) int64 {
	f, g := ps.Fibers[pt], ps.Fibers[qi]
	k := int((f.T0 + lag - g.T0) / w)
	return int64(max(0, min(int(f.Len), int(g.Len)-k)-max(0, -k)))
}

// buildTIGByLookup is BuildTIG as it was before the line graph: one
// lattice lookup per (projected point, dependence) pair names the target
// block, and the pair's arc count is an intersection of the two fibers'
// intervals (fiberArcs). It keeps per-dependence weights in depW.
func buildTIGByLookup(p *Partitioning) *edgeTIG {
	ps := p.PS
	m := len(ps.Deps)
	t := &edgeTIG{n: p.NumBlocks(), nDeps: m}
	t.loads = make([]int64, t.n)
	for g := range p.NumBlocks() {
		t.loads[g] = int64(p.BlockSize(g))
	}
	// slot[v] is the position in edges of the current row's edge to v,
	// valid while stamp[v] == u+1.
	slot := make([]int, t.n)
	stamp := make([]int32, t.n)
	t.rowStart = make([]int, t.n+1)
	q := make(vec.Int, len(ps.Pi))
	lag, w := depLags(ps), ps.Stride()
	for u := range p.NumBlocks() {
		row := len(t.edges)
		for _, member := range p.Members(u) {
			pt := int(member)
			for dep, d := range ps.Deps {
				// A dependence parallel to Π stays on its projection
				// line, inside the block.
				qi := pt
				if !d.IsZero() {
					if qi = lineTarget(ps, pt, dep, q); qi < 0 {
						continue
					}
				}
				arcs := fiberArcs(ps, pt, qi, lag[dep], w)
				t.arcs += arcs
				v := int(p.GroupOf[qi])
				if v == u || arcs == 0 {
					continue
				}
				if stamp[v] != int32(u+1) {
					stamp[v] = int32(u + 1)
					slot[v] = len(t.edges)
					t.edges = append(t.edges, TIGEdge{From: u, To: v})
					t.depW = append(t.depW, make([]int64, m)...)
				}
				e := slot[v]
				t.edges[e].Weight += arcs
				t.depW[e*m+dep] += arcs
			}
		}
		t.sortRow(row)
		t.rowStart[u+1] = len(t.edges)
	}
	return t
}

// sortRow insertion-sorts the row edges[from:] by To, moving the
// per-dependence weights along with their edges.
func (t *edgeTIG) sortRow(from int) {
	m := t.nDeps
	for i := from + 1; i < len(t.edges); i++ {
		for j := i; j > from && t.edges[j-1].To > t.edges[j].To; j-- {
			t.edges[j-1], t.edges[j] = t.edges[j], t.edges[j-1]
			a, b := t.depW[(j-1)*m:j*m], t.depW[j*m:(j+1)*m]
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
		}
	}
}

// tigEdges lists a TIG's edges as TIGEdge records, row by row, through
// Row; nil when it has none.
func tigEdges(t *TIG) []TIGEdge {
	var out []TIGEdge
	for u := range t.N {
		to, weight := t.Row(u)
		for i, v := range to {
			out = append(out, TIGEdge{From: u, To: int(v), Weight: weight[i]})
		}
	}
	return out
}

// checkTIGAgainstEdges compares every accessor of got with the edge-array
// TIG want: its rows and weights, Loads, EdgeStats, MaxOutDegree, and per
// block pair (one block past each end included) OutDegree, Successors,
// Weight, DepBreakdown and every WeightByDep.
func checkTIGAgainstEdges(t *testing.T, label string, got *TIG, want *edgeTIG) {
	t.Helper()
	if g, w := tigEdges(got), want.edges; !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: edges differ:\n got %v\nwant %v", label, g, w)
	}
	if len(got.Edges) != len(want.edges) {
		t.Fatalf("%s: len(Edges) = %d, want %d", label, len(got.Edges), len(want.edges))
	}
	if !reflect.DeepEqual(got.Loads, want.loads) {
		t.Fatalf("%s: Loads = %v, want %v", label, got.Loads, want.loads)
	}
	if g, w := got.EdgeStats(), want.edgeStats(); g != w {
		t.Fatalf("%s: EdgeStats = %+v, want %+v", label, g, w)
	}
	if g, w := got.MaxOutDegree(), want.maxOutDegree(); g != w {
		t.Fatalf("%s: MaxOutDegree = %d, want %d", label, g, w)
	}
	for u := -1; u <= got.N; u++ {
		succ := want.successors(u)
		if g := got.Successors(u); !reflect.DeepEqual(g, succ) {
			t.Fatalf("%s: Successors(%d) = %v, want %v", label, u, g, succ)
		}
		if g := got.OutDegree(u); g != len(succ) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, g, len(succ))
		}
		for v := -1; v <= got.N; v++ {
			if g, w := got.Weight(u, v), want.weight(u, v); g != w {
				t.Fatalf("%s: Weight(%d,%d) = %d, want %d", label, u, v, g, w)
			}
			wantDeps := want.depBreakdown(u, v)
			if g := got.DepBreakdown(u, v); !reflect.DeepEqual(g, wantDeps) {
				t.Fatalf("%s: DepBreakdown(%d,%d) = %v, want %v", label, u, v, g, wantDeps)
			}
			for dep := -1; dep <= want.nDeps; dep++ {
				if g, w := got.WeightByDep(u, v, dep), wantDeps[dep]; g != w {
					t.Fatalf("%s: WeightByDep(%d,%d,%d) = %d, want %d", label, u, v, dep, g, w)
				}
			}
		}
	}
}

// oracleStructures returns the projected structures the line-graph TIG is
// checked on: every built-in kernel at sizes 3 and 6 under its own Π, and
// two generated nests of each shape in 2-D and in 3-D.
func oracleStructures(t *testing.T) map[string]*project.Structure {
	t.Helper()
	out := map[string]*project.Structure{}
	for _, name := range kernels.Names() {
		for _, size := range []int64{3, 6} {
			out[fmt.Sprintf("%s/%d", name, size)] = projectKernel(t, name, size, false)
		}
	}
	rng := rand.New(rand.NewSource(24))
	// Draw's shape and depth follow the trial number through these
	// residues; take two cases of each.
	have := make([]int, 2*len(nestgen.Kinds))
	for trial := 0; slices.Min(have) < 2; trial++ {
		if have[trial%len(have)] == 2 {
			continue
		}
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
		have[trial%len(have)]++
		out[c.Name] = ps
	}
	return out
}

// TestBuildTIGMatchesLookupOracle compares the line-graph TIG with the
// lookup-based build on every oracle structure at merge factors 1–10,
// aux on and off, through every accessor (checkTIGAgainstEdges).
func TestBuildTIGMatchesLookupOracle(t *testing.T) {
	for name, ps := range oracleStructures(t) {
		for merge := int64(1); merge <= 10; merge++ {
			for _, noAux := range []bool{false, true} {
				p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				label := fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux)
				checkTIGAgainstEdges(t, label, BuildTIG(p), buildTIGByLookup(p))
			}
		}
	}
}

// TestFlatTIGMatchesEdgeOracle diffs the flat CSR tables against the
// array-of-TIGEdge build they replaced (buildTIGByEdges) on every
// built-in kernel and nestgen shape (oracleStructures) at merge factors
// 1–4 and 2^40, aux on and off.
func TestFlatTIGMatchesEdgeOracle(t *testing.T) {
	for name, ps := range oracleStructures(t) {
		for _, merge := range []int64{1, 2, 3, 4, 1 << 40} {
			for _, noAux := range []bool{false, true} {
				p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				label := fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux)
				checkTIGAgainstEdges(t, label, BuildTIG(p), buildTIGByEdges(p))
			}
		}
	}
}

// TestBuildTIGAllocsDoNotGrowWithBlocks checks that the TIG build makes
// the same number of allocations for stencil at sizes 32 and 128: its
// tables are sized up front, so only their lengths follow the number of
// blocks.
func TestBuildTIGAllocsDoNotGrowWithBlocks(t *testing.T) {
	allocs := func(size int64) float64 {
		p, err := Partition(projectKernel(t, "stencil", size, false), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { BuildTIG(p) })
	}
	small, large := allocs(32), allocs(128)
	if small != large {
		t.Fatalf("BuildTIG allocates %v times for stencil/32 and %v for stencil/128, want equal", small, large)
	}
}
