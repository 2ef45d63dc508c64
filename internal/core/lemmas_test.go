package core

import (
	"testing"

	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

// depTargets returns, for partitioning p, the set of groups that receive
// data from group g along original dependence vector d (classified over
// the computational structure's edges).
func depTargets(p *Partitioning, g int, d vec.Int) map[int]bool {
	targets := map[int]bool{}
	st := p.PS.Orig
	blockOf := p.BlockOf()
	st.ForEachEdge(func(e loop.Edge) {
		if !st.D[e.Dep].Equal(d) {
			return
		}
		from := blockOf[st.VertexIndex(e.From)]
		to := blockOf[st.VertexIndex(e.To)]
		if from == g && to != g {
			targets[to] = true
		}
	})
	return targets
}

// classifyDeps splits the structure's dependence vectors into those whose
// projections are the grouping vector, auxiliary vectors, or neither.
func classifyDeps(p *Partitioning) (groupingDeps, auxDeps, otherDeps []vec.Int) {
	for _, pd := range p.PS.Deps {
		d := p.PS.Orig.D[pd.Index]
		switch {
		case pd.IsZero():
			// Parallel to Π: stays inside a block, not covered by the
			// lemmas (never crosses groups).
		case p.Grouping != nil && pd.Scaled.Equal(p.Grouping.Scaled):
			groupingDeps = append(groupingDeps, d)
		default:
			isAux := false
			for _, a := range p.Aux {
				if pd.Scaled.Equal(a.Scaled) {
					isAux = true
				}
			}
			if isAux {
				auxDeps = append(auxDeps, d)
			} else {
				otherDeps = append(otherDeps, d)
			}
		}
	}
	return groupingDeps, auxDeps, otherDeps
}

// TestLemma2and3 checks the Appendix lemmas directly, per group and per
// dependence vector:
//
//	Lemma 2: along the grouping vector and each auxiliary grouping vector,
//	         a group sends data to at most ONE group.
//	Lemma 3: along every other projected dependence vector, a group sends
//	         data to at most TWO groups.
func TestLemma2and3(t *testing.T) {
	cases := []struct {
		name string
		ps   func(t *testing.T) *project.Structure
	}{
		{"matmul4", func(t *testing.T) *project.Structure { return matmulProjected(t, 4) }},
		{"matmul6", func(t *testing.T) *project.Structure { return matmulProjected(t, 6) }},
		{"l1", l1Projected},
		{"matvec8", func(t *testing.T) *project.Structure { return matvecProjected(t, 8) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Partition(c.ps(t), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			groupingDeps, auxDeps, otherDeps := classifyDeps(p)
			for g := 0; g < p.NumBlocks(); g++ {
				for _, d := range append(append([]vec.Int{}, groupingDeps...), auxDeps...) {
					if n := len(depTargets(p, g, d)); n > 1 {
						t.Errorf("Lemma 2 violated: group %d sends along %v to %d groups", g, d, n)
					}
				}
				for _, d := range otherDeps {
					if n := len(depTargets(p, g, d)); n > 2 {
						t.Errorf("Lemma 3 violated: group %d sends along %v to %d groups", g, d, n)
					}
				}
			}
		})
	}
}

// TestLemma3TightForMatMul reproduces the paper's worked observation: for
// Example 2's grouping, interior groups send to exactly two groups along
// d_B (the non-grouping, non-auxiliary vector) — the G10 → {G12, G13}
// situation of Fig. 6.
func TestLemma3TightForMatMul(t *testing.T) {
	p, err := Partition(matmulProjected(t, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, _, otherDeps := classifyDeps(p)
	if len(otherDeps) != 1 {
		t.Fatalf("expected exactly one non-grouping dependence, got %v", otherDeps)
	}
	two := 0
	for g := 0; g < p.NumBlocks(); g++ {
		if len(depTargets(p, g, otherDeps[0])) == 2 {
			two++
		}
	}
	if two == 0 {
		t.Fatal("no group attains the Lemma 3 bound of two targets; the paper's Fig. 6 shows several")
	}
}
