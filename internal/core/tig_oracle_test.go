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

// lookupTIG is the TIG BuildTIG built before the stage's line graph: it
// carries its per-dependence weights, depW[e*nDeps+dep] being the part of
// Edges[e]'s weight carried by dependence dep.
type lookupTIG struct {
	TIG
	depW  []int64
	nDeps int
}

// lineTarget returns the projected point x^p + d^p for x^p = ps.Points[pt]
// and d = ps.Deps[dep], or -1 when no index point projects there. q is
// scratch of the structure's dimension.
func lineTarget(ps *project.Structure, pt, dep int, q vec.Int) int {
	d := ps.Deps[dep].Scaled
	for k, x := range ps.Points[pt] {
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
	return int64(max(0, min(f.Len, g.Len-k)-max(0, -k)))
}

// buildTIGByLookup is BuildTIG as it was before the line graph: one
// lattice lookup per (projected point, dependence) pair names the target
// block, and the pair's arc count is an intersection of the two fibers'
// intervals (fiberArcs).
func buildTIGByLookup(p *Partitioning) *lookupTIG {
	ps := p.PS
	m := len(ps.Deps)
	t := &lookupTIG{TIG: TIG{N: p.NumBlocks()}, nDeps: m}
	t.Loads = make([]int64, t.N)
	for g := range p.NumBlocks() {
		t.Loads[g] = int64(p.BlockSize(g))
	}
	rowCap := max(Theorem2Bound(p), 1)
	t.Edges = make([]TIGEdge, 0, t.N*rowCap)
	t.depW = make([]int64, 0, t.N*rowCap*m)
	// slot[v] is the position in Edges of the current row's edge to v,
	// valid while stamp[v] == u+1.
	slot := make([]int, t.N)
	stamp := make([]int32, t.N)
	t.rowStart = make([]int, t.N+1)
	q := make(vec.Int, len(ps.Pi))
	lag, w := depLags(ps), ps.Stride()
	for u := range p.NumBlocks() {
		row := len(t.Edges)
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
					slot[v] = len(t.Edges)
					t.Edges = append(t.Edges, TIGEdge{From: u, To: v})
					t.depW = append(t.depW, make([]int64, m)...)
				}
				e := slot[v]
				t.Edges[e].Weight += arcs
				t.depW[e*m+dep] += arcs
			}
		}
		t.sortRow(row)
		t.rowStart[u+1] = len(t.Edges)
	}
	// The rows were laid out for the Theorem 2 bound; copy the edges
	// out so a cached TIG pins only the edges it has.
	if len(t.Edges) == 0 {
		t.Edges, t.depW = nil, nil
	} else {
		t.Edges, t.depW = slices.Clone(t.Edges), slices.Clone(t.depW)
	}
	return t
}

// sortRow insertion-sorts the row Edges[from:] by To, moving the
// per-dependence weights along with their edges.
func (t *lookupTIG) sortRow(from int) {
	m := t.nDeps
	for i := from + 1; i < len(t.Edges); i++ {
		for j := i; j > from && t.Edges[j-1].To > t.Edges[j].To; j-- {
			t.Edges[j-1], t.Edges[j] = t.Edges[j], t.Edges[j-1]
			a, b := t.depW[(j-1)*m:j*m], t.depW[j*m:(j+1)*m]
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
		}
	}
}

// WeightByDep returns the volume from u to v carried by dependence dep
// (an index into the structure's D).
func (t *lookupTIG) WeightByDep(u, v, dep int) int64 {
	e := t.edge(u, v)
	if e < 0 || t.depW == nil || dep < 0 || dep >= t.nDeps {
		return 0
	}
	return t.depW[e*t.nDeps+dep]
}

// DepBreakdown returns the per-dependence volumes from u to v (nil when
// there is no traffic). The returned map is a copy.
func (t *lookupTIG) DepBreakdown(u, v int) map[int]int64 {
	e := t.edge(u, v)
	if e < 0 || t.depW == nil {
		return nil
	}
	out := map[int]int64{}
	for dep, w := range t.depW[e*t.nDeps : (e+1)*t.nDeps] {
		if w != 0 {
			out[dep] = w
		}
	}
	return out
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
// aux on and off: Edges, Loads, every OutDegree, EdgeStats, and every
// WeightByDep and DepBreakdown, block pairs one past each end included.
func TestBuildTIGMatchesLookupOracle(t *testing.T) {
	for name, ps := range oracleStructures(t) {
		m := len(ps.Deps)
		for merge := int64(1); merge <= 10; merge++ {
			for _, noAux := range []bool{false, true} {
				p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				label := fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux)
				got, want := BuildTIG(p), buildTIGByLookup(p)
				if !reflect.DeepEqual(got.Edges, want.Edges) {
					t.Fatalf("%s: Edges differ:\n got %v\nwant %v", label, got.Edges, want.Edges)
				}
				if !reflect.DeepEqual(got.Loads, want.Loads) {
					t.Fatalf("%s: Loads = %v, want %v", label, got.Loads, want.Loads)
				}
				if g, w := got.EdgeStats(), want.EdgeStats(); g != w {
					t.Fatalf("%s: EdgeStats = %+v, want %+v", label, g, w)
				}
				for u := -1; u <= got.N; u++ {
					if g, w := got.OutDegree(u), want.OutDegree(u); g != w {
						t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, g, w)
					}
					for v := -1; v <= got.N; v++ {
						if g, w := got.DepBreakdown(u, v), want.DepBreakdown(u, v); !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: DepBreakdown(%d,%d) = %v, want %v", label, u, v, g, w)
						}
						for dep := -1; dep <= m; dep++ {
							if g, w := got.WeightByDep(u, v, dep), want.WeightByDep(u, v, dep); g != w {
								t.Fatalf("%s: WeightByDep(%d,%d,%d) = %d, want %d", label, u, v, dep, g, w)
							}
						}
					}
				}
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
