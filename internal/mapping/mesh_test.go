package mapping

import (
	"testing"

	"repro/internal/core"
)

func TestMeshMapFig8Scenario(t *testing.T) {
	// The 4×4 mesh TIG of Example 3 onto a 2×4 mesh machine.
	res, err := MapItemsMesh(meshItems(), 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for node, cl := range res.Clusters {
		if len(cl) != 2 {
			t.Fatalf("node %d holds %v", node, cl)
		}
	}
	st := EvaluateMesh(meshTIG(), res)
	if st.MaxDilation > 2 {
		t.Fatalf("max dilation = %d", st.MaxDilation)
	}
	if st.MaxLoad != 2 || st.MinLoad != 2 {
		t.Fatalf("loads [%d,%d]", st.MinLoad, st.MaxLoad)
	}
}

func TestMeshMapIdentityScenario(t *testing.T) {
	// 4×4 items onto a 4×4 mesh: one block per node and the mesh TIG's
	// edges must all be dilation 1 (perfect embedding).
	res, err := MapItemsMesh(meshItems(), 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for node, cl := range res.Clusters {
		if len(cl) != 1 {
			t.Fatalf("node %d holds %v", node, cl)
		}
	}
	st := EvaluateMesh(meshTIG(), res)
	if st.MaxDilation != 1 {
		t.Fatalf("perfect embedding expected, max dilation = %d", st.MaxDilation)
	}
}

func TestMeshMapPartitioning(t *testing.T) {
	p := matmulPartitioning(t, 4)
	tig := core.BuildTIG(p)
	res, err := MapPartitioningMesh(p, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, cl := range res.Clusters {
		seen += len(cl)
		if len(cl) < 2 || len(cl) > 3 {
			t.Fatalf("cluster sizes unbalanced: %v", res.Clusters)
		}
	}
	if seen != tig.N {
		t.Fatalf("%d blocks placed, want %d", seen, tig.N)
	}
	st := EvaluateMesh(tig, res)
	if st.HopWeight <= 0 || st.MaxLoad <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMeshMapBetterThanRandomScatter(t *testing.T) {
	tig := meshTIG()
	res, err := MapItemsMesh(meshItems(), 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := EvaluateMesh(tig, res)
	// Scatter blocks round-robin over nodes (worst locality) for contrast.
	scatter := make([]int, 16)
	for b := range scatter {
		scatter[b] = b % 8
	}
	bad := EvaluateGeneral(tig, scatter, 8, res.Mesh.Distance)
	if good.HopWeight >= bad.HopWeight {
		t.Fatalf("bisection mapping hop-weight %d not below scatter %d", good.HopWeight, bad.HopWeight)
	}
}

func TestMeshMapErrors(t *testing.T) {
	if _, err := MapItemsMesh(nil, 2, 2, Options{}); err == nil {
		t.Fatal("empty items accepted")
	}
	if _, err := MapItemsMesh(meshItems(), 3, 2, Options{}); err == nil {
		t.Fatal("non-power-of-two rows accepted")
	}
	if _, err := MapItemsMesh(meshItems(), 2, 5, Options{}); err == nil {
		t.Fatal("non-power-of-two cols accepted")
	}
	if _, err := MapItemsMesh([]Item{{ID: -2}}, 2, 2, Options{}); err == nil {
		t.Fatal("negative ID accepted")
	}
}

func TestMeshMapSingleAxisItems(t *testing.T) {
	// One-axis items (e.g. matvec blocks) spread over both mesh dimensions.
	var items []Item
	for i := 0; i < 16; i++ {
		items = append(items, Item{ID: i, Coords: []int32{int32(i)}})
	}
	res, err := MapItemsMesh(items, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for node, cl := range res.Clusters {
		if len(cl) != 1 {
			t.Fatalf("node %d holds %v", node, cl)
		}
	}
	// Chain-neighbouring blocks should sit close: mean distance between
	// consecutive IDs must be well below the mesh diameter.
	total := 0
	for i := 1; i < 16; i++ {
		total += res.Mesh.Distance(res.NodeOf[i-1], res.NodeOf[i])
	}
	if mean := float64(total) / 15; mean > 2.0 {
		t.Fatalf("consecutive blocks too far apart on average: %.2f", mean)
	}
}
