package core

import (
	"fmt"
	"sort"

	"repro/internal/project"
	"repro/internal/vec"
)

// TIGEdge is one directed communication requirement between two blocks.
type TIGEdge struct {
	From, To int
	// Weight is the number of data items crossing the edge (one per
	// dependence arc between the blocks).
	Weight int64
}

// TIG is the Task Interaction Graph of §IV: vertices are partitioned
// blocks, edges carry the interblock communication volume.
//
// Edges doubles as a CSR adjacency: block u's out-edges are
// Edges[rowStart[u]:rowStart[u+1]], sorted by To. Theorem 2 keeps a row
// of Algorithm 1's TIG to at most 2m − β entries, so every per-edge
// accessor is a short scan.
type TIG struct {
	// N is the number of blocks (TIG vertices).
	N int
	// Loads[g] is the number of index points in block g (its computation
	// weight).
	Loads []int64
	// Edges holds the directed edges, sorted by (From, To).
	Edges []TIGEdge

	rowStart []int
	// depW[e*nDeps+dep] is the part of Edges[e]'s weight carried by the
	// dependence vector dep (an index into the structure's D). Only
	// BuildTIG fills it; synthetic TIGs from NewTIG have no breakdown.
	depW  []int64
	nDeps int
}

// NewTIG builds a TIG directly from loads and edges — used for synthetic
// task graphs such as the 4×4 mesh of the paper's Example 3 (Fig. 8).
// Parallel edges accumulate.
func NewTIG(n int, loads []int64, edges []TIGEdge) *TIG {
	t := &TIG{N: n}
	t.Loads = make([]int64, n)
	copy(t.Loads, loads)
	sorted := append([]TIGEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	for _, e := range sorted {
		if k := len(t.Edges) - 1; k >= 0 && t.Edges[k].From == e.From && t.Edges[k].To == e.To {
			t.Edges[k].Weight += e.Weight
			continue
		}
		t.Edges = append(t.Edges, e)
	}
	t.indexRows()
	return t
}

// indexRows fills rowStart from the sorted Edges.
func (t *TIG) indexRows() {
	t.rowStart = make([]int, t.N+1)
	for _, e := range t.Edges {
		t.rowStart[e.From+1]++
	}
	for u := 0; u < t.N; u++ {
		t.rowStart[u+1] += t.rowStart[u]
	}
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

// fiberArcs counts the dependence arcs along D[dep] that leave the fiber
// of projected point pt. Projection is linear, so all of them land on the
// fiber of x^p + d^p (lineTarget). The fiber is the run of lattice points
// of one line inside the convex index set, in line order, and the part
// of it whose arcs along d stay inside is a run too: trim the fiber from
// both ends.
func fiberArcs(ps *project.Structure, pt, dep int) int64 {
	st := ps.Orig
	d := st.D[dep]
	fib := ps.Fibers[pt]
	lo, hi := 0, len(fib)-1
	for lo <= hi && st.NeighborIndex(fib[lo], d) < 0 {
		lo++
	}
	for hi > lo && st.NeighborIndex(fib[hi], d) < 0 {
		hi--
	}
	return int64(hi - lo + 1)
}

// BuildTIG constructs the TIG of a partitioning by classifying every
// dependence arc of the computational structure. One lattice lookup per
// (projected point, dependence) pair names the target block, and the
// pair's arc count comes from the ends of its fiber (fiberArcs), so the
// cost follows |V^p|·m rather than |V|·m. Blocks are visited in order, so
// each row is complete before the next starts: a per-block stamp array
// finds an edge in O(1), and the finished row (at most 2m − β entries by
// Theorem 2) is sorted in place. Block membership
// is read through Groups and the fibers, as Step 6 defines BlockOf;
// BuildTIG panics if p.BlockOf disagrees with them, so the TIG cannot
// silently differ from what CheckInvariants and the simulators see.
func BuildTIG(p *Partitioning) *TIG {
	ps := p.PS
	m := len(ps.Deps)
	t := &TIG{N: len(p.Groups), nDeps: m}
	t.Loads = make([]int64, t.N)
	for g := range p.Groups {
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
	for u, g := range p.Groups {
		row := len(t.Edges)
		for _, pt := range g.Members {
			for _, vi := range ps.Fibers[pt] {
				if p.BlockOf[vi] != u {
					panic(fmt.Sprintf("core: BuildTIG: BlockOf[%d] = %d, but its projected point %d is in group %d", vi, p.BlockOf[vi], pt, u))
				}
			}
			for dep, d := range ps.Deps {
				// A dependence parallel to Π stays on its projection
				// line, inside the block.
				if d.IsZero() {
					continue
				}
				qi := lineTarget(ps, pt, dep, q)
				if qi < 0 {
					continue
				}
				v := p.GroupOf[qi]
				if v == u {
					continue
				}
				arcs := fiberArcs(ps, pt, dep)
				if arcs == 0 {
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
	if len(t.Edges) == 0 {
		t.Edges, t.depW = nil, nil
	}
	return t
}

// sortRow insertion-sorts the row Edges[from:] by To, moving the
// per-dependence weights along with their edges.
func (t *TIG) sortRow(from int) {
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

// edge returns the position in Edges of the edge u → v, or -1.
func (t *TIG) edge(u, v int) int {
	if u < 0 || u >= t.N {
		return -1
	}
	for e := t.rowStart[u]; e < t.rowStart[u+1]; e++ {
		if t.Edges[e].To == v {
			return e
		}
	}
	return -1
}

// Weight returns the communication volume from block u to block v.
func (t *TIG) Weight(u, v int) int64 {
	if e := t.edge(u, v); e >= 0 {
		return t.Edges[e].Weight
	}
	return 0
}

// WeightByDep returns the volume from u to v carried by dependence dep
// (an index into the structure's D). Zero for synthetic TIGs.
func (t *TIG) WeightByDep(u, v, dep int) int64 {
	e := t.edge(u, v)
	if e < 0 || t.depW == nil || dep < 0 || dep >= t.nDeps {
		return 0
	}
	return t.depW[e*t.nDeps+dep]
}

// DepBreakdown returns the per-dependence volumes from u to v (nil when
// there is no traffic or the TIG is synthetic). The returned map is a copy.
func (t *TIG) DepBreakdown(u, v int) map[int]int64 {
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

// OutDegree returns the number of distinct blocks u sends data to.
func (t *TIG) OutDegree(u int) int {
	if u < 0 || u >= t.N {
		return 0
	}
	return t.rowStart[u+1] - t.rowStart[u]
}

// MaxOutDegree returns the largest out-degree over all blocks. Theorem 2
// bounds it by 2m − β.
func (t *TIG) MaxOutDegree() int {
	mx := 0
	for u := 0; u < t.N; u++ {
		if d := t.OutDegree(u); d > mx {
			mx = d
		}
	}
	return mx
}

// TotalTraffic returns the sum of all edge weights (total interblock data
// items).
func (t *TIG) TotalTraffic() int64 {
	var s int64
	for _, e := range t.Edges {
		s += e.Weight
	}
	return s
}

// Successors returns the blocks u sends data to, sorted.
func (t *TIG) Successors(u int) []int {
	var out []int
	if u >= 0 && u < t.N {
		for _, e := range t.Edges[t.rowStart[u]:t.rowStart[u+1]] {
			out = append(out, e.To)
		}
	}
	return out
}

// String summarizes the TIG.
func (t *TIG) String() string {
	return fmt.Sprintf("TIG{blocks: %d, edges: %d, traffic: %d, maxOutDeg: %d}",
		t.N, len(t.Edges), t.TotalTraffic(), t.MaxOutDegree())
}
