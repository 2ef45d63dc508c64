package mapping

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ints"
	"repro/internal/mesh"
)

// MeshResult is a completed mapping of blocks onto a 2-D mesh — the
// extension of Algorithm 2 to the other dominant multicomputer topology of
// the era. Unlike the hypercube, a mesh needs no Gray code: consecutive
// slice indices along an axis are already physically adjacent rows or
// columns.
type MeshResult struct {
	Mesh mesh.Mesh
	// NodeOf[blockID] is the mesh node of the block.
	NodeOf []int
	// Clusters[node] lists the block IDs on that node.
	Clusters [][]int
}

// MapItemsMesh bisects the items onto a rows×cols mesh (both powers of
// two): row slices follow the grouping axis and column slices the first
// auxiliary axis (falling back to the grouping axis for one-axis items),
// interleaved for balance like Phase I's round-robin.
func MapItemsMesh(items []Item, rows, cols int, opt Options) (*MeshResult, error) {
	if len(items) == 0 {
		return nil, errors.New("mapping: no items")
	}
	if !ints.IsPow2(int64(rows)) || !ints.IsPow2(int64(cols)) {
		return nil, fmt.Errorf("mapping: mesh dimensions %dx%d must be powers of two", rows, cols)
	}
	b := getBisection()
	defer putBisection(b)
	maxID, err := b.reset(items)
	if err != nil {
		return nil, err
	}
	const rowField, colField = 0, 1
	colAxis := 0
	if b.axes > 1 {
		colAxis = 1
	}
	// Split along the dimension with more halvings left, rows on a tie.
	rowBudget := ints.Log2Ceil(int64(rows))
	colBudget := ints.Log2Ceil(int64(cols))
	for rowBudget > 0 || colBudget > 0 {
		if rowBudget >= colBudget {
			b.split(0, rowField)
			rowBudget--
		} else {
			b.split(colAxis, colField)
			colBudget--
		}
	}

	m := mesh.New(rows, cols)
	res := &MeshResult{Mesh: m}
	idx := make([]int, 2)
	res.NodeOf, res.Clusters = b.place(maxID, m.N(), nil, func(c int) int {
		b.fieldIndices(c, idx)
		return m.Node(idx[rowField], idx[colField])
	})
	return res, nil
}

// MapPartitioningMesh runs the mesh mapper on a partitioning.
func MapPartitioningMesh(p *core.Partitioning, rows, cols int, opt Options) (*MeshResult, error) {
	return MapItemsMesh(ItemsOf(p), rows, cols, opt)
}

// EvaluateGeneral computes mapping statistics over an arbitrary topology
// given its distance function.
func EvaluateGeneral(t *core.TIG, nodeOf []int, numNodes int, dist func(a, b int) int) Stats {
	var s Stats
	// The per-node loads of a small machine live on the stack.
	var small [64]int64
	loads := small[:0]
	if numNodes <= len(small) {
		loads = small[:numNodes]
	} else {
		loads = make([]int64, numNodes)
	}
	for b := 0; b < t.N; b++ {
		loads[nodeOf[b]] += t.Loads[b]
	}
	s.MinLoad = loads[0]
	for _, l := range loads {
		if l > s.MaxLoad {
			s.MaxLoad = l
		}
		if l < s.MinLoad {
			s.MinLoad = l
		}
	}
	for u := range t.N {
		to, weight := t.Row(u)
		for i, v := range to {
			d := dist(nodeOf[u], nodeOf[v])
			s.HopWeight += weight[i] * int64(d)
			if d > 0 {
				s.RemoteWeight += weight[i]
				if d > s.MaxDilation {
					s.MaxDilation = d
				}
			}
		}
	}
	return s
}

// EvaluateMesh computes mapping statistics for a mesh mapping.
func EvaluateMesh(t *core.TIG, r *MeshResult) Stats {
	return EvaluateGeneral(t, r.NodeOf, r.Mesh.N(), r.Mesh.Distance)
}
