package core

import (
	"fmt"
	"slices"
	"sort"
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
	// arcs is the number of dependence arcs in the structure, intra-block
	// and Π-parallel ones included; a synthetic TIG knows only its
	// interblock arcs.
	arcs int64
	// part is the partitioning BuildTIG walked, whose line graph the
	// per-dependence accessors re-sum; nil for synthetic TIGs from
	// NewTIG, which have no breakdown.
	part *Partitioning
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
	t.arcs = t.TotalTraffic()
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

// BuildTIG constructs the TIG of a partitioning by classifying every
// dependence arc of the computational structure. The stage's line graph
// (project.Structure.Arcs) already names each (projected point,
// dependence) pair's target line and arc count, so the build walks the
// table rows of each block's points, |V^p|·m entries in all. The pairs
// that stay inside a block count toward EdgeStats' total. A first walk
// counts each block's distinct targets, so Edges is laid out at its
// exact length; the second fills the rows. Blocks are visited in order,
// so each row is complete before the next starts: a per-block stamp
// array finds an edge in O(1), and the finished row (at most 2m − β
// entries by Theorem 2) is sorted in place.
func BuildTIG(p *Partitioning) *TIG {
	ps := p.PS
	n := p.NumBlocks()
	t := &TIG{N: n, part: p}
	t.Loads = make([]int64, n)
	t.rowStart = make([]int, n+1)
	// The first walk sets stamp[v] = u+1 when row u first targets v, the
	// second −(u+1), and slot[v] is then the position in Edges of the
	// row's edge to v.
	marks := make([]int32, 2*n)
	stamp, slot := marks[:n:n], marks[n:]
	for u := range n {
		targets := 0
		for _, pt := range p.Members(u) {
			t.Loads[u] += int64(ps.Fibers[pt].Len)
			for _, a := range ps.Line(int(pt)) {
				if a.To < 0 {
					continue
				}
				t.arcs += a.Arcs
				if v := p.GroupOf[a.To]; int(v) != u && a.Arcs != 0 && stamp[v] != int32(u+1) {
					stamp[v] = int32(u + 1)
					targets++
				}
			}
		}
		t.rowStart[u+1] = t.rowStart[u] + targets
	}
	if t.rowStart[n] > 0 {
		t.Edges = make([]TIGEdge, 0, t.rowStart[n])
	}
	for u := range n {
		row := len(t.Edges)
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
					slot[v] = int32(len(t.Edges))
					t.Edges = append(t.Edges, TIGEdge{From: u, To: int(v)})
				}
				t.Edges[slot[v]].Weight += a.Arcs
			}
		}
		slices.SortFunc(t.Edges[row:], func(a, b TIGEdge) int { return a.To - b.To })
	}
	return t
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
// (an index into the structure's D). Zero for synthetic TIGs. The TIG
// keeps no per-dependence weights: this sums block u's line graph
// entries, O(block lines · m).
func (t *TIG) WeightByDep(u, v, dep int) int64 {
	if t.edge(u, v) < 0 || t.part == nil || dep < 0 || dep >= len(t.part.PS.Deps) {
		return 0
	}
	var w int64
	for _, pt := range t.part.Members(u) {
		if a := t.part.PS.Line(int(pt))[dep]; a.To >= 0 && int(t.part.GroupOf[a.To]) == v {
			w += a.Arcs
		}
	}
	return w
}

// DepBreakdown returns the per-dependence volumes from u to v (nil when
// there is no traffic or the TIG is synthetic), summed like WeightByDep
// in O(block lines · m). The returned map is the caller's.
func (t *TIG) DepBreakdown(u, v int) map[int]int64 {
	if t.edge(u, v) < 0 || t.part == nil {
		return nil
	}
	out := map[int]int64{}
	for _, pt := range t.part.Members(u) {
		for dep, a := range t.part.PS.Line(int(pt)) {
			if a.To >= 0 && a.Arcs != 0 && int(t.part.GroupOf[a.To]) == v {
				out[dep] += a.Arcs
			}
		}
	}
	return out
}

// DepEdgeStats classifies dependence arcs as intra- or inter-block.
type DepEdgeStats struct {
	Total      int // all dependence arcs in Q
	InterBlock int // arcs whose endpoints lie in different blocks
}

// EdgeStats returns the total and interblock dependence arc counts (the
// paper's "number of data dependencies between index points is 33, and
// only 12 of them require interprocessor communication" for loop L1).
// BuildTIG counts them as it classifies the arcs, so this costs one pass
// over the edges; InterBlock equals TotalTraffic.
func (t *TIG) EdgeStats() DepEdgeStats {
	return DepEdgeStats{Total: int(t.arcs), InterBlock: int(t.TotalTraffic())}
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

// MaxLoad returns the largest block load (the paper's W for the
// most-loaded processor when each block maps to its own processor),
// read from Loads without walking the blocks again.
func (t *TIG) MaxLoad() int64 {
	var mx int64
	for _, l := range t.Loads {
		mx = max(mx, l)
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
