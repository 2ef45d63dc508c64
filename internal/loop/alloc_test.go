package loop_test

import (
	"testing"

	"repro/internal/kernels"
)

// TestNeighborIndexNoAllocsTriangular: on the non-rectangular triangular
// kernel, resolving every dependence arc and every vertex allocates
// nothing.
func TestNeighborIndexNoAllocsTriangular(t *testing.T) {
	st, err := kernels.Triangular(64).Structure()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rectangular() {
		t.Fatal("triangular structure uses the rectangular index")
	}
	sum := 0
	allocs := testing.AllocsPerRun(20, func() {
		for vi, p := range st.V {
			sum += st.VertexIndex(p)
			for _, d := range st.D {
				sum += st.NeighborIndex(vi, d)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("NeighborIndex/VertexIndex allocate %.1f times per pass, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("lookups degenerated")
	}
}
