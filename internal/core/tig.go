package core

import (
	"cmp"
	"fmt"
	"slices"
)

// TIGEdge is one directed communication requirement between two blocks,
// as NewTIG takes it. A TIG does not store TIGEdges: it keeps its edges
// in flat CSR tables (see TIG and Row).
type TIGEdge struct {
	From, To int
	// Weight is the number of data items crossing the edge (one per
	// dependence arc between the blocks).
	Weight int64
}

// TIG is the Task Interaction Graph of §IV: vertices are partitioned
// blocks, edges carry the interblock communication volume.
//
// The edges are a CSR adjacency in pointer-free tables: block u's
// out-edges are positions rowStart[u] to rowStart[u+1] of the target
// column Edges and the weight column weight, sorted by target. An edge
// costs 12 bytes (an int32 target and an int64 weight) and a row 4 (its
// int32 offset); no edge repeats the row it sits in. Theorem 2 keeps a row
// of Algorithm 1's TIG to at most 2m − β entries, so every per-edge
// accessor is a short scan. Readers go through Row.
type TIG struct {
	// N is the number of blocks (TIG vertices).
	N int
	// Loads[g] is the number of index points in block g (its computation
	// weight).
	Loads []int64
	// Edges is the target column, row after row: len(Edges) is the
	// number of edges. Read a block's edges through Row.
	Edges []int32

	weight   []int64
	rowStart []int32
	// arcs is the number of dependence arcs in the structure, intra-block
	// and Π-parallel ones included; a synthetic TIG knows only its
	// interblock arcs.
	arcs int64
	// part is the partitioning BuildTIG walked, whose line graph the
	// per-dependence accessors re-sum; nil for synthetic TIGs from
	// NewTIG, which have no breakdown.
	part *Partitioning
}

// newTIG lays out a TIG's tables for n blocks and e edges in two tables
// from t: the row offsets and targets share an int32 table, the loads and
// weights an int64 one.
func newTIG(t *Tables, n, e int) *TIG {
	i32, i64 := t.int32s(n+1+e), t.int64s(n+e)
	g := t.graph()
	*g = TIG{
		N: n, Loads: i64[:n:n], weight: i64[n:],
		rowStart: i32[: n+1 : n+1], Edges: i32[n+1:],
	}
	return g
}

// NewTIG builds a TIG directly from loads and edges — used for synthetic
// task graphs such as the 4×4 mesh of the paper's Example 3 (Fig. 8).
// Parallel edges accumulate. Every From must name a block in [0, n).
func NewTIG(n int, loads []int64, edges []TIGEdge) *TIG {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b TIGEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	merged := sorted[:0]
	for _, e := range sorted {
		if k := len(merged) - 1; k >= 0 && merged[k].From == e.From && merged[k].To == e.To {
			merged[k].Weight += e.Weight
			continue
		}
		merged = append(merged, e)
	}
	t := newTIG(nil, n, len(merged))
	copy(t.Loads, loads)
	for i, e := range merged {
		t.rowStart[e.From+1]++
		t.Edges[i], t.weight[i] = int32(e.To), e.Weight
	}
	for u := range n {
		t.rowStart[u+1] += t.rowStart[u]
	}
	t.arcs = t.TotalTraffic()
	return t
}

// BuildTIG constructs the TIG of a partitioning by classifying every
// dependence arc of the computational structure. The stage's line graph
// (project.Structure.Arcs) already names each (projected point,
// dependence) pair's target line and arc count, so the build walks the
// table rows of each block's points once, |V^p|·m entries in all. The
// pairs that stay inside a block count toward EdgeStats' total. Blocks
// are visited in order, so each row is complete before the next starts:
// a per-block stamp array finds an edge of the row in O(1), and the
// finished row (at most 2m − β entries by Theorem 2) is insertion-sorted
// in place. The rows and loads are built in pooled scratch and copied
// into the TIG's tables once the walk knows their length.
func BuildTIG(p *Partitioning) *TIG {
	return BuildTIGInto(p, nil)
}

// BuildTIGInto is BuildTIG building the TIG into t's recycled memory
// (see Tables); a nil t builds a kept TIG, as BuildTIG does.
func BuildTIGInto(p *Partitioning, t *Tables) *TIG {
	ps := p.PS
	n := p.NumBlocks()
	// stamp[v] = u+1 once row u has an edge to v, which sits at slot[v]
	// of the edge buffers; rows[u+1] is where row u ends.
	sc := getScratch()
	defer putScratch(sc)
	marks := sc.int32s(3*n + 1)
	stamp, slot, rows := marks[:n:n], marks[n:2*n:2*n], marks[2*n:]
	loads := sc.vec(n)
	to, weight := sc.to[:0], sc.weight[:0]
	var arcs int64
	for u := range n {
		row := len(to)
		for _, pt := range p.Members(u) {
			loads[u] += int64(ps.Fibers[pt].Len)
			for _, a := range ps.Line(int(pt)) {
				if a.To < 0 {
					continue
				}
				arcs += int64(a.Arcs)
				v := p.GroupOf[a.To]
				if int(v) == u || a.Arcs == 0 {
					continue
				}
				if stamp[v] != int32(u+1) {
					stamp[v], slot[v] = int32(u+1), int32(len(to))
					to, weight = append(to, v), append(weight, 0)
				}
				weight[slot[v]] += int64(a.Arcs)
			}
		}
		sortRow(to[row:], weight[row:])
		rows[u+1] = int32(len(to))
	}
	// Keep the edge buffers' growth for the next build.
	sc.to, sc.weight = to, weight
	g := newTIG(t, n, len(to))
	g.arcs, g.part = arcs, p
	copy(g.rowStart, rows)
	copy(g.Edges, to)
	copy(g.weight, weight)
	copy(g.Loads, loads)
	return g
}

// sortRow insertion-sorts one row's edges by target, moving each weight
// along with its target.
func sortRow(tgt []int32, w []int64) {
	for i := 1; i < len(tgt); i++ {
		for j := i; j > 0 && tgt[j-1] > tgt[j]; j-- {
			tgt[j-1], tgt[j] = tgt[j], tgt[j-1]
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
}

// Row returns block u's out-edges: their targets, ascending, and their
// weights, position by position; both are empty for a u outside [0, N).
// The slices are the TIG's; callers must not modify them.
func (t *TIG) Row(u int) (to []int32, weight []int64) {
	if u < 0 || u >= t.N {
		return nil, nil
	}
	s, e := t.rowStart[u], t.rowStart[u+1]
	return t.Edges[s:e:e], t.weight[s:e:e]
}

// edge returns the position in the tables of the edge u → v, or -1.
func (t *TIG) edge(u, v int) int {
	if u < 0 || u >= t.N {
		return -1
	}
	for e := t.rowStart[u]; e < t.rowStart[u+1]; e++ {
		if int(t.Edges[e]) == v {
			return int(e)
		}
	}
	return -1
}

// Weight returns the communication volume from block u to block v.
func (t *TIG) Weight(u, v int) int64 {
	if e := t.edge(u, v); e >= 0 {
		return t.weight[e]
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
			w += int64(a.Arcs)
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
				out[dep] += int64(a.Arcs)
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
// over the weight column; InterBlock equals TotalTraffic.
func (t *TIG) EdgeStats() DepEdgeStats {
	return DepEdgeStats{Total: int(t.arcs), InterBlock: int(t.TotalTraffic())}
}

// OutDegree returns the number of distinct blocks u sends data to.
func (t *TIG) OutDegree(u int) int {
	if u < 0 || u >= t.N {
		return 0
	}
	return int(t.rowStart[u+1] - t.rowStart[u])
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
	for _, w := range t.weight {
		s += w
	}
	return s
}

// Successors returns the blocks u sends data to, sorted.
func (t *TIG) Successors(u int) []int {
	var out []int
	to, _ := t.Row(u)
	for _, v := range to {
		out = append(out, int(v))
	}
	return out
}

// String summarizes the TIG.
func (t *TIG) String() string {
	return fmt.Sprintf("TIG{blocks: %d, edges: %d, traffic: %d, maxOutDeg: %d}",
		t.N, len(t.Edges), t.TotalTraffic(), t.MaxOutDegree())
}
