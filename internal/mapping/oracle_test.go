package mapping

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/ints"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/mesh"
	"repro/internal/nestgen"
	"repro/internal/project"
	"repro/internal/vec"
)

// mapItemsStable is MapItems as it was before the per-axis orders: every
// bisection step stable-sorts each cluster along the step's axis and cuts
// it in half.
func mapItemsStable(items []Item, dim int, opt Options) (*Result, error) {
	if len(items) == 0 {
		return nil, errors.New("mapping: no items")
	}
	if dim < 0 {
		return nil, fmt.Errorf("mapping: negative cube dimension %d", dim)
	}
	if dim > maxCubeDim {
		return nil, fmt.Errorf("mapping: cube dimension %d exceeds the supported maximum %d", dim, maxCubeDim)
	}
	if opt.Exclusive && int64(len(items)) > int64(1)<<dim {
		return nil, fmt.Errorf("%w: exclusive placement of %d blocks needs more than the 2^%d available nodes", ErrCubeTooSmall, len(items), dim)
	}
	maxID := 0
	for _, it := range items {
		if it.ID < 0 {
			return nil, fmt.Errorf("mapping: negative item ID %d", it.ID)
		}
		if it.ID > maxID {
			maxID = it.ID
		}
	}

	// Normalize coordinate arity; items with no coordinates sort by ID,
	// which follows the lexicographic order of the projected points.
	axes := 0
	for _, it := range items {
		if len(it.Coords) > axes {
			axes = len(it.Coords)
		}
	}
	if axes == 0 {
		axes = 1
	}
	coord := func(it Item, a int) int64 {
		if len(it.Coords) == 0 {
			if a == 0 {
				return int64(it.ID)
			}
			return 0
		}
		if a < len(it.Coords) {
			return int64(it.Coords[a])
		}
		return 0
	}

	// cluster carries its member items plus the per-axis slice index
	// accumulated over the bisections.
	type cluster struct {
		items   []Item
		axisIdx []int
	}
	clusters := []cluster{{items: append([]Item{}, items...), axisIdx: make([]int, axes)}}
	bits := make([]int, axes)

	chooseAxis := func(step int) int {
		switch opt.Policy {
		case WidestFirst:
			// Widest coordinate span inside the largest cluster.
			var biggest *cluster
			for i := range clusters {
				if biggest == nil || len(clusters[i].items) > len(biggest.items) {
					biggest = &clusters[i]
				}
			}
			bestAxis, bestSpan := 0, int64(-1)
			for a := 0; a < axes; a++ {
				var mn, mx int64
				for i, it := range biggest.items {
					c := coord(it, a)
					if i == 0 || c < mn {
						mn = c
					}
					if i == 0 || c > mx {
						mx = c
					}
				}
				if span := mx - mn; span > bestSpan {
					bestAxis, bestSpan = a, span
				}
			}
			return bestAxis
		default:
			return step % axes
		}
	}

	for step := 0; step < dim; step++ {
		axis := chooseAxis(step)
		bits[axis]++
		var next []cluster
		for _, cl := range clusters {
			slices.SortStableFunc(cl.items, func(a, b Item) int {
				if c := cmp.Compare(a.Component, b.Component); c != 0 {
					return c
				}
				if c := cmp.Compare(coord(a, axis), coord(b, axis)); c != 0 {
					return c
				}
				// Tie-break on the remaining axes, then ID, for determinism.
				for o := 0; o < axes; o++ {
					if o == axis {
						continue
					}
					if c := cmp.Compare(coord(a, o), coord(b, o)); c != 0 {
						return c
					}
				}
				return cmp.Compare(a.ID, b.ID)
			})
			mid := (len(cl.items) + 1) / 2
			lo := cluster{items: cl.items[:mid], axisIdx: append([]int{}, cl.axisIdx...)}
			hi := cluster{items: cl.items[mid:], axisIdx: append([]int{}, cl.axisIdx...)}
			lo.axisIdx[axis] = cl.axisIdx[axis] * 2
			hi.axisIdx[axis] = cl.axisIdx[axis]*2 + 1
			next = append(next, lo, hi)
		}
		clusters = next
	}

	// Phase II: per-axis Gray fields concatenated into the node address,
	// axis 0 in the most significant position.
	shift := make([]int, axes)
	total := 0
	for a := axes - 1; a >= 0; a-- {
		shift[a] = total
		total += bits[a]
	}
	res := &Result{
		Cube:        hypercube.New(dim),
		NodeOf:      make([]int, maxID+1),
		BitsPerAxis: bits,
	}
	for i := range res.NodeOf {
		res.NodeOf[i] = -1
	}
	res.Clusters = make([][]int, res.Cube.N)
	for _, cl := range clusters {
		node := 0
		for a := 0; a < axes; a++ {
			g := int(ints.Gray(uint64(cl.axisIdx[a])))
			node |= g << uint(shift[a])
		}
		for _, it := range cl.items {
			res.NodeOf[it.ID] = node
			res.Clusters[node] = append(res.Clusters[node], it.ID)
		}
	}
	for node := range res.Clusters {
		sort.Ints(res.Clusters[node])
	}
	return res, nil
}

// mapItemsMeshStable is MapItemsMesh as it was before it shared the cube's
// bisection: a second copy of Phase I's comparator, each cluster re-sorted
// with sort.SliceStable at every split.
func mapItemsMeshStable(items []Item, rows, cols int, opt Options) (*MeshResult, error) {
	if len(items) == 0 {
		return nil, errors.New("mapping: no items")
	}
	if !ints.IsPow2(int64(rows)) || !ints.IsPow2(int64(cols)) {
		return nil, fmt.Errorf("mapping: mesh dimensions %dx%d must be powers of two", rows, cols)
	}
	maxID := 0
	axes := 0
	for _, it := range items {
		if it.ID < 0 {
			return nil, fmt.Errorf("mapping: negative item ID %d", it.ID)
		}
		if it.ID > maxID {
			maxID = it.ID
		}
		if len(it.Coords) > axes {
			axes = len(it.Coords)
		}
	}
	if axes == 0 {
		axes = 1
	}
	coord := func(it Item, a int) int64 {
		if len(it.Coords) == 0 {
			if a == 0 {
				return int64(it.ID)
			}
			return 0
		}
		if a < len(it.Coords) {
			return int64(it.Coords[a])
		}
		return 0
	}

	rowAxis := 0
	colAxis := 0
	if axes > 1 {
		colAxis = 1
	}

	type cluster struct {
		items  []Item
		rowIdx int
		colIdx int
	}
	clusters := []cluster{{items: append([]Item{}, items...)}}
	rowBudget := ints.Log2Ceil(int64(rows))
	colBudget := ints.Log2Ceil(int64(cols))

	split := func(alongRow bool) {
		axis := colAxis
		if alongRow {
			axis = rowAxis
		}
		var next []cluster
		for _, cl := range clusters {
			sort.SliceStable(cl.items, func(i, j int) bool {
				a, b := cl.items[i], cl.items[j]
				if a.Component != b.Component {
					return a.Component < b.Component
				}
				if ca, cb := coord(a, axis), coord(b, axis); ca != cb {
					return ca < cb
				}
				for o := 0; o < axes; o++ {
					if o == axis {
						continue
					}
					if ca, cb := coord(a, o), coord(b, o); ca != cb {
						return ca < cb
					}
				}
				return a.ID < b.ID
			})
			mid := (len(cl.items) + 1) / 2
			lo := cluster{items: cl.items[:mid], rowIdx: cl.rowIdx, colIdx: cl.colIdx}
			hi := cluster{items: cl.items[mid:], rowIdx: cl.rowIdx, colIdx: cl.colIdx}
			if alongRow {
				lo.rowIdx, hi.rowIdx = cl.rowIdx*2, cl.rowIdx*2+1
			} else {
				lo.colIdx, hi.colIdx = cl.colIdx*2, cl.colIdx*2+1
			}
			next = append(next, lo, hi)
		}
		clusters = next
	}
	for rowBudget > 0 || colBudget > 0 {
		if rowBudget >= colBudget && rowBudget > 0 {
			split(true)
			rowBudget--
			continue
		}
		if colBudget > 0 {
			split(false)
			colBudget--
		}
	}

	m := mesh.New(rows, cols)
	res := &MeshResult{Mesh: m, NodeOf: make([]int, maxID+1)}
	for i := range res.NodeOf {
		res.NodeOf[i] = -1
	}
	res.Clusters = make([][]int, m.N())
	for _, cl := range clusters {
		node := m.Node(cl.rowIdx, cl.colIdx)
		for _, it := range cl.items {
			res.NodeOf[it.ID] = node
			res.Clusters[node] = append(res.Clusters[node], it.ID)
		}
	}
	for node := range res.Clusters {
		sort.Ints(res.Clusters[node])
	}
	return res, nil
}

// oracleItemSets returns the item sets of the oracle comparisons: the
// partitionings of every built-in kernel at sizes 3 and 6 and of two
// generated nests of each shape in 2-D and in 3-D, at merge factors 1–10
// with aux on and off.
func oracleItemSets(t *testing.T) map[string][]Item {
	t.Helper()
	structs := map[string]*project.Structure{}
	add := func(name string, st *loop.Structure, pi vec.Int) {
		ps, err := project.Project(st, pi)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		structs[name] = ps
	}
	for _, name := range kernels.Names() {
		for _, size := range []int64{3, 6} {
			k, err := kernels.Lookup(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/%d", name, size), st, k.Pi)
		}
	}
	rng := rand.New(rand.NewSource(24))
	// Draw's shape and depth follow the trial number through these
	// residues; take two cases of each.
	have := make([]int, 2*len(nestgen.Kinds))
	for trial := 0; slices.Min(have) < 2; trial++ {
		if have[trial%len(have)] == 2 {
			continue
		}
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		add(c.Name, st, c.Pi)
		have[trial%len(have)]++
	}
	out := map[string][]Item{}
	for name, ps := range structs {
		for merge := int64(1); merge <= 10; merge++ {
			for _, noAux := range []bool{false, true} {
				p, err := core.Partition(ps, core.Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux)] = ItemsOf(p)
			}
		}
	}
	return out
}

// randomItems draws n items with IDs below n (so some repeat), up to
// three components, and coordinates in [−2, 2] (so many tie); each item
// has no coordinates, or one to three of them.
func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		it := Item{ID: rng.Intn(n), Component: rng.Intn(3)}
		if k := rng.Intn(4); k > 0 {
			it.Coords = make([]int32, k)
			for a := range it.Coords {
				it.Coords[a] = int32(rng.Intn(5)) - 2
			}
		}
		items[i] = it
	}
	return items
}

// compareCube runs MapItems and its stable-sort oracle on the items for
// cube dimensions 0–6, both policies, exclusive placement on and off,
// and requires equal results, or errors with equal messages.
func compareCube(t *testing.T, name string, items []Item) {
	t.Helper()
	for dim := 0; dim <= 6; dim++ {
		for _, policy := range []AxisPolicy{RoundRobin, WidestFirst} {
			for _, excl := range []bool{false, true} {
				opt := Options{Policy: policy, Exclusive: excl}
				label := fmt.Sprintf("%s dim=%d %+v", name, dim, opt)
				got, err := MapItems(items, dim, opt)
				want, werr := mapItemsStable(items, dim, opt)
				if fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s: error %v, oracle %v", label, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
				}
			}
		}
	}
}

// compareMesh runs MapItemsMesh and its oracle on the items for every
// mesh of 1–8 rows and 1–8 columns, non-powers of two included.
func compareMesh(t *testing.T, name string, items []Item) {
	t.Helper()
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; cols <= 8; cols++ {
			label := fmt.Sprintf("%s mesh %dx%d", name, rows, cols)
			got, err := MapItemsMesh(items, rows, cols, Options{})
			want, werr := mapItemsMeshStable(items, rows, cols, Options{})
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, oracle %v", label, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
			}
		}
	}
}

// TestMapItemsMatchesStableOracle compares the per-axis-order bisection
// with the stable-sort one, for the cube and for the mesh, on every
// oracle partitioning and on seeded random item sets with coordinate
// ties, missing and mixed-length coordinates, several components and
// duplicate IDs. The input slices must come back unchanged.
func TestMapItemsMatchesStableOracle(t *testing.T) {
	check := func(name string, items []Item) {
		t.Helper()
		before := fmt.Sprint(items)
		compareCube(t, name, items)
		compareMesh(t, name, items)
		if fmt.Sprint(items) != before {
			t.Fatalf("%s: mapping reordered or changed its input", name)
		}
	}
	for name, items := range oracleItemSets(t) {
		check(name, items)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		check(fmt.Sprintf("random %d", trial), randomItems(rng, 1+rng.Intn(40)))
	}
	check("negative ID", []Item{{ID: 1}, {ID: -1}})
}

// TestPackedOrderMatchesCompare holds the packed-key axis orders to
// compare and slices.SortFunc, their oracle, on every oracle
// partitioning (every built-in kernel and generated nest) and on seeded
// random items with negative coordinates, several components, short or
// missing coordinates, and repeated or descending IDs. At every position
// of every axis order, the two orders must hold items that compare
// ranks equal, so they differ only among items no result tells apart.
// Items whose IDs do not descend and whose key fields fit in 64 bits
// must take the packed path, and all others the comparison sort.
func TestPackedOrderMatchesCompare(t *testing.T) {
	check := func(name string, items []Item, wantPacked bool) {
		t.Helper()
		b := &bisection{}
		if _, err := b.reset(items); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.packed != wantPacked {
			t.Fatalf("%s: packed %v, want %v", name, b.packed, wantPacked)
		}
		for axis := range b.axes {
			got := b.order(axis)
			want := make([]int32, len(items))
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortFunc(want, func(i, j int32) int { return b.compare(&items[i], &items[j], axis) })
			seen := make([]bool, len(items))
			for k, i := range got {
				if seen[i] {
					t.Fatalf("%s axis %d: position %d listed twice", name, axis, i)
				}
				seen[i] = true
				if b.compare(&items[i], &items[want[k]], axis) != 0 {
					t.Fatalf("%s axis %d: order %v, compare sorts %v", name, axis, got, want)
				}
			}
			if len(got) != len(items) {
				t.Fatalf("%s axis %d: order lists %d of %d items", name, axis, len(got), len(items))
			}
		}
	}
	for name, items := range oracleItemSets(t) {
		check(name, items, true)
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		items := randomItems(rng, 1+rng.Intn(40))
		for i := range items {
			for a := range items[i].Coords {
				items[i].Coords[a] *= int32(1 + rng.Intn(1000))
			}
		}
		ids := make([]int, len(items))
		for i := range items {
			ids[i] = items[i].ID
		}
		slices.Sort(ids)
		for i := range items {
			items[i].ID = ids[i]
		}
		check(fmt.Sprintf("random %d, IDs ascending", trial), items, true)
		for i := range items {
			items[i].ID = ids[len(ids)-1-i]
		}
		check(fmt.Sprintf("random %d, IDs descending", trial), items, ids[0] == ids[len(ids)-1])
	}
	// Fields of 64 bits in all pack (here 62 for the component, one for
	// the ID that stands in for a missing coordinate, one for the
	// position); one more bit does not.
	check("64 bits", []Item{{ID: 0, Component: 0}, {ID: 1, Component: 1 << 61}}, true)
	check("65 bits", []Item{{ID: 0, Component: 0}, {ID: 1, Component: 1 << 62}}, false)
	check("66 bits of coordinates", []Item{
		{ID: 0, Coords: []int32{math.MinInt32, math.MinInt32}},
		{ID: 1, Component: 1, Coords: []int32{math.MaxInt32, math.MaxInt32}},
	}, false)
	check("widest component", []Item{{ID: 0, Component: math.MinInt}, {ID: 1, Component: math.MaxInt}}, false)
}
