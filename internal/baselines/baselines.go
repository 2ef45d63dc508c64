// Package baselines implements the comparator partitioning methods of the
// paper's §I, so the evaluation can reproduce the motivating comparison:
//
//   - Independent partitioning (the GCD method, the minimum-distance
//     method, Shang & Fortes): iterations are independent iff they lie in
//     different cosets of the lattice generated by the dependence vectors.
//     Implemented via the Hermite Normal Form coset index. For matmul,
//     matvec, convolution, transitive closure (dependence lattices of
//     determinant 1) this yields a single block — the loop runs
//     sequentially, which is precisely the paper's argument for grouping.
//   - Line-per-block: every projection line is its own block (the paper's
//     grouping with r forced to 1) — maximal parallelism, maximal
//     communication.
//   - Round-robin points: fine-grain strawman that scatters index points
//     over processors with no locality.
//
// All baselines produce the same Blocks shape so the simulator and the
// ablation benches can compare them uniformly.
package baselines

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

// Blocks is a generic block assignment over a computational structure.
type Blocks struct {
	// Name identifies the method.
	Name string
	// Of[vi] is the block of vertex vi.
	Of []int
	// N is the number of blocks.
	N int
}

// Stats counts total and interblock dependence arcs.
type Stats struct {
	Total      int
	InterBlock int
}

// EdgeStats classifies all dependence arcs of the structure.
func (b *Blocks) EdgeStats(st *loop.Structure) Stats {
	var s Stats
	st.ForEachEdgeIdx(func(ui, vi, _ int) {
		s.Total++
		if b.Of[ui] != b.Of[vi] {
			s.InterBlock++
		}
	})
	return s
}

// MaxLoad returns the size of the largest block.
func (b *Blocks) MaxLoad() int {
	counts := make([]int, b.N)
	for _, g := range b.Of {
		counts[g]++
	}
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Fold maps the blocks onto n processors round-robin and returns the
// vertex→processor assignment.
func (b *Blocks) Fold(n int) []int {
	if n < 1 {
		panic("baselines: Fold needs at least one processor")
	}
	procOf := make([]int, len(b.Of))
	for vi, g := range b.Of {
		procOf[vi] = g % n
	}
	return procOf
}

// Independent partitions the structure into the cosets of the dependence
// lattice — the best any of the independence-based methods can do for
// uniform dependences. The returned block count is the achievable
// parallelism: 1 means the methods serialize the loop.
func Independent(st *loop.Structure) (*Blocks, error) {
	l := lattice.FromVectors(st.Dim(), st.D...)
	b := &Blocks{Name: "independent", Of: make([]int, st.Len())}
	ids := map[string]int{}
	st.Points(func(vi int, x vec.Int) bool {
		key := l.CosetKey(x)
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		b.Of[vi] = id
		return true
	})
	b.N = len(ids)
	return b, nil
}

// IndependentBlockCount returns the number of independent blocks without
// materializing them: |det HNF| for full-rank dependence lattices. It
// returns 0 when the lattice is rank-deficient (the coset count then
// depends on the index-set extent along the unconstrained directions).
func IndependentBlockCount(st *loop.Structure) int64 {
	return lattice.FromVectors(st.Dim(), st.D...).Det()
}

// LinePerBlock makes every projection line of the projected structure its
// own block (grouping with r = 1 and no auxiliary vectors).
func LinePerBlock(ps *project.Structure) *Blocks {
	return &Blocks{Name: "line-per-block", Of: ps.LineOf(), N: ps.NumPoints()}
}

// RoundRobin scatters index points over n blocks in lexicographic order.
func RoundRobin(st *loop.Structure, n int) (*Blocks, error) {
	if n < 1 {
		return nil, fmt.Errorf("baselines: round-robin needs n >= 1, got %d", n)
	}
	b := &Blocks{Name: "round-robin", Of: make([]int, st.Len()), N: n}
	for vi := range b.Of {
		b.Of[vi] = vi % n
	}
	return b, nil
}

// FromPartitioning wraps the paper's partitioning in the common shape.
func FromPartitioning(name string, blockOf []int, n int) *Blocks {
	of := make([]int, len(blockOf))
	copy(of, blockOf)
	return &Blocks{Name: name, Of: of, N: n}
}
