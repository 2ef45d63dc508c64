package core

import (
	"repro/internal/project"
	"repro/internal/vec"
)

// Stage holds Algorithm 1's inputs that depend only on the projected
// structure, never on Options: Step 1's candidates (the nonzero projected
// dependences) and its default choice, β = rank(mat(D^p)), the auxiliary
// set Step 2 picks for every grouping choice, the bounding box of V^p,
// and on a dense lattice index each candidate's table stride. Building
// them takes a string-keyed dedup and rational row reductions, so a
// planner that partitions one structure under many options builds its
// Stage once. A Stage is read-only once built: any number of goroutines
// may partition from it at once, and the partitionings share its
// grouping and auxiliary vectors.
type Stage struct {
	// PS is the projected structure the inputs were computed from.
	PS *project.Structure

	nz   []project.Dep
	beta int
	// first is the position in nz of the paper's grouping vector: the
	// first with the largest r.
	first int
	// aux[i] is Step 2's auxiliary set when nz[i] is the grouping vector
	// (nil when it is empty).
	aux [][]project.Dep
	// lo and hi bound the projected points; step[i] is the lattice table
	// stride of one nz[i] step, all zero without a dense index.
	lo, hi []int64
	step   []int64
}

// NewStage computes Algorithm 1's per-structure inputs.
func NewStage(ps *project.Structure) *Stage {
	s := &Stage{PS: ps, nz: ps.NonzeroDeps()}
	s.lo, s.hi = ps.Bounds()
	if len(s.nz) == 0 {
		return s
	}
	// β = rank(mat(D^p)); zero columns do not contribute.
	cols := make([]vec.Int, len(s.nz))
	rats := make([]vec.Rat, len(s.nz))
	s.step = make([]int64, len(s.nz))
	for i, d := range s.nz {
		cols[i], rats[i] = d.Scaled, d.Scaled.ToRat()
		s.step[i] = ps.LatticeStep(d.Scaled)
		if d.R > s.nz[s.first].R {
			s.first = i
		}
	}
	s.beta = vec.RankOfIntColumns(cols...)
	// Step 2 for every grouping choice: greedily extend {nz[gi]} to a
	// linearly independent set of size β from the remaining projected
	// deps, in order.
	s.aux = make([][]project.Dep, len(s.nz))
	for gi := range s.nz {
		chosen := []vec.Rat{rats[gi]}
		for i, d := range s.nz {
			if i == gi || len(chosen) == s.beta {
				continue
			}
			cand := append(chosen[:len(chosen):len(chosen)], rats[i])
			if vec.LinearlyIndependent(cand...) {
				chosen = cand
				s.aux[gi] = append(s.aux[gi], d)
			}
		}
	}
	return s
}
