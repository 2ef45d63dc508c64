package mapping

import (
	"testing"

	"repro/internal/core"
	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

// meshItems builds the paper's Example 3 scenario: a 4×4 mesh-like TIG of
// 16 blocks, block ID = 4*y + x, with lattice coordinates (x, y).
func meshItems() []Item {
	var items []Item
	for y := int32(0); y < 4; y++ {
		for x := int32(0); x < 4; x++ {
			items = append(items, Item{ID: int(4*y + x), Coords: []int32{x, y}})
		}
	}
	return items
}

// meshTIG returns the undirected-mesh communication pattern of Example 3 as
// a directed TIG with unit weights both ways.
func meshTIG() *core.TIG {
	loads := make([]int64, 16)
	var edges []core.TIGEdge
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			loads[4*y+x] = 1
			id := 4*y + x
			if x+1 < 4 {
				edges = append(edges, core.TIGEdge{From: id, To: id + 1, Weight: 1},
					core.TIGEdge{From: id + 1, To: id, Weight: 1})
			}
			if y+1 < 4 {
				edges = append(edges, core.TIGEdge{From: id, To: id + 4, Weight: 1},
					core.TIGEdge{From: id + 4, To: id, Weight: 1})
			}
		}
	}
	return core.NewTIG(16, loads, edges)
}

func TestFig8MeshOnto3Cube(t *testing.T) {
	res, err := MapItems(meshItems(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 clusters of exactly 2 blocks (Example 3 pairs B1,B2 etc.).
	for node, cl := range res.Clusters {
		if len(cl) != 2 {
			t.Fatalf("node %d holds %d blocks, want 2 (clusters %v)", node, len(cl), res.Clusters)
		}
	}
	// Cluster members must be mesh-adjacent (the paper pairs horizontally
	// neighbouring blocks).
	for _, cl := range res.Clusters {
		a, b := cl[0], cl[1]
		ax, ay := a%4, a/4
		bx, by := b%4, b/4
		manhattan := abs(ax-bx) + abs(ay-by)
		if manhattan != 1 {
			t.Fatalf("cluster {%d,%d} not mesh-adjacent", a, b)
		}
	}
	// Mesh-adjacent blocks in different clusters must land on hypercube
	// nodes within 1 hop (the Gray-code dilation guarantee along divided
	// axes).
	st := Evaluate(meshTIG(), res)
	if st.MaxDilation > 1 {
		t.Fatalf("max dilation = %d, want <= 1", st.MaxDilation)
	}
	if st.MaxLoad != 2 || st.MinLoad != 2 {
		t.Fatalf("load spread [%d,%d], want perfectly balanced 2", st.MinLoad, st.MaxLoad)
	}
}

func TestBitsPerAxisRoundRobin(t *testing.T) {
	res, err := MapItems(meshItems(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// n=3 over two axes round-robin: p = (2, 1), matching Example 3's
	// "divided twice along one direction and once along the other".
	if len(res.BitsPerAxis) != 2 || res.BitsPerAxis[0] != 2 || res.BitsPerAxis[1] != 1 {
		t.Fatalf("BitsPerAxis = %v, want [2 1]", res.BitsPerAxis)
	}
}

func TestMappingCoversAllBlocks(t *testing.T) {
	res, err := MapItems(meshItems(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for node, cl := range res.Clusters {
		for _, b := range cl {
			if seen[b] {
				t.Fatalf("block %d mapped twice", b)
			}
			seen[b] = true
			if res.NodeOf[b] != node {
				t.Fatalf("NodeOf[%d] = %d, cluster says %d", b, res.NodeOf[b], node)
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("%d blocks mapped, want 16", len(seen))
	}
}

func TestMapPartitioningMatMul(t *testing.T) {
	p := matmulPartitioning(t, 4)
	tig := core.BuildTIG(p)
	res, err := MapPartitioning(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := Evaluate(tig, res)
	if st.MaxLoad <= 0 {
		t.Fatal("no load mapped")
	}
	// Every block must be placed on a valid node.
	for b := 0; b < tig.N; b++ {
		if !res.Cube.Valid(res.NodeOf[b]) {
			t.Fatalf("block %d on invalid node %d", b, res.NodeOf[b])
		}
	}
	// Cluster sizes balanced within one (17 blocks over 8 nodes: 2 or 3).
	for node, cl := range res.Clusters {
		if len(cl) < 2 || len(cl) > 3 {
			t.Fatalf("node %d holds %d blocks", node, len(cl))
		}
	}
}

func TestGrayMappingBeatsRandomOnMesh(t *testing.T) {
	tig := meshTIG()
	res, err := MapItems(meshItems(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grayStats := Evaluate(tig, res)
	worse := 0
	for seed := int64(0); seed < 10; seed++ {
		rnd, err := Random(16, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if Evaluate(tig, rnd).HopWeight >= grayStats.HopWeight {
			worse++
		}
	}
	// Random placement should essentially never beat the locality-aware
	// Gray mapping on a mesh TIG.
	if worse < 9 {
		t.Fatalf("random beat gray %d/10 times (gray hop weight %d)", 10-worse, grayStats.HopWeight)
	}
}

func TestLinearBaseline(t *testing.T) {
	res, err := Linear(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 16; b++ {
		if res.NodeOf[b] != b/2 {
			t.Fatalf("Linear NodeOf[%d] = %d", b, res.NodeOf[b])
		}
	}
	if _, err := Linear(0, 3); err == nil {
		t.Fatal("Linear(0) accepted")
	}
}

func TestRandomBaselineBalanced(t *testing.T) {
	res, err := Random(16, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for node, cl := range res.Clusters {
		if len(cl) != 2 {
			t.Fatalf("random node %d holds %d blocks", node, len(cl))
		}
	}
	// Determinism per seed.
	res2, _ := Random(16, 3, 42)
	for b := range res.NodeOf {
		if res.NodeOf[b] != res2.NodeOf[b] {
			t.Fatal("Random not deterministic for fixed seed")
		}
	}
}

func TestGreedyMapping(t *testing.T) {
	tig := meshTIG()
	g, err := Greedy(tig, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every block placed on a valid node.
	for b := 0; b < tig.N; b++ {
		if !g.Cube.Valid(g.NodeOf[b]) {
			t.Fatalf("block %d on node %d", b, g.NodeOf[b])
		}
	}
	gs := Evaluate(tig, g)
	// Load within 2x of perfect balance (unit loads, 16 blocks, 8 nodes).
	if gs.MaxLoad > 4 {
		t.Fatalf("greedy max load = %d", gs.MaxLoad)
	}
	// Better than random on locality.
	rnd, err := Random(tig.N, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gs.HopWeight >= Evaluate(tig, rnd).HopWeight {
		t.Fatalf("greedy hop-weight %d not below random", gs.HopWeight)
	}
	// With commWeight 0 it degenerates to load balancing: still valid and
	// perfectly balanced for unit loads.
	lb, err := Greedy(tig, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := Evaluate(tig, lb); st.MaxLoad != 2 {
		t.Fatalf("pure load balance max load = %d, want 2", st.MaxLoad)
	}
	if _, err := Greedy(core.NewTIG(0, nil, nil), 2, 1); err == nil {
		t.Fatal("empty TIG accepted")
	}
}

func TestGreedyVsGrayOnStructuredTIG(t *testing.T) {
	// On the regular mesh TIG, Algorithm 2's structured bisection should
	// beat (or match) greedy placement on hop-weight — the paper's point:
	// exploiting the lattice structure is better than generic allocation.
	tig := meshTIG()
	gray, err := MapItems(meshItems(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Greedy(tig, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw := Evaluate(tig, gray).HopWeight
	dw := Evaluate(tig, greedy).HopWeight
	if gw > dw {
		t.Fatalf("gray hop-weight %d worse than greedy %d on structured TIG", gw, dw)
	}
}

func TestWidestFirstPolicy(t *testing.T) {
	// An 8×2 strip: widest-first should bisect the long axis repeatedly.
	var items []Item
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 8; x++ {
			items = append(items, Item{ID: int(8*y + x), Coords: []int32{x, y}})
		}
	}
	res, err := MapItems(items, 3, Options{Policy: WidestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsPerAxis[0] < 2 {
		t.Fatalf("widest-first split long axis %d times, want >= 2 (%v)", res.BitsPerAxis[0], res.BitsPerAxis)
	}
	for _, cl := range res.Clusters {
		if len(cl) != 2 {
			t.Fatalf("unbalanced cluster %v", cl)
		}
	}
}

func TestMapItemsZeroDim(t *testing.T) {
	// dim 0: single node gets everything.
	res, err := MapItems(meshItems(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0]) != 16 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
}

func TestMapItemsErrors(t *testing.T) {
	if _, err := MapItems(nil, 3, Options{}); err == nil {
		t.Fatal("empty items accepted")
	}
	if _, err := MapItems([]Item{{ID: -1}}, 1, Options{}); err == nil {
		t.Fatal("negative ID accepted")
	}
	if _, err := MapItems(meshItems(), -1, Options{}); err == nil {
		t.Fatal("negative dim accepted")
	}
}

func TestItemsWithoutCoordsFallBackToID(t *testing.T) {
	items := []Item{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	res, err := MapItems(items, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous IDs split at the median.
	if res.NodeOf[0] != res.NodeOf[1] || res.NodeOf[2] != res.NodeOf[3] || res.NodeOf[0] == res.NodeOf[2] {
		t.Fatalf("NodeOf = %v", res.NodeOf)
	}
}

func matmulPartitioning(t *testing.T, sz int64) *core.Partitioning {
	t.Helper()
	n := loop.NewRect("matmul", []int64{0, 0, 0}, []int64{sz - 1, sz - 1, sz - 1})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, vec.NewInt(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
