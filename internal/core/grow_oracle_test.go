package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
	"repro/internal/vec"
)

// vecSet is the visited set the flat region growing replaced: lattice
// positions keyed by FNV-1a hashing of the raw coordinates, with bucket
// chaining.
type vecSet struct {
	buckets map[uint64][]vec.Int
}

func newVecSet(sizeHint int) *vecSet {
	return &vecSet{buckets: make(map[uint64][]vec.Int, sizeHint)}
}

// add inserts v (cloned) and reports whether it was absent before.
func (s *vecSet) add(v vec.Int) bool {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, x := range v {
		u := uint64(x)
		for b := 0; b < 8; b++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	for _, w := range s.buckets[h] {
		if w.Equal(v) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], v.Clone())
	return true
}

// refGroup is one group as the reference grower keeps it: per-group
// slices, slots included.
type refGroup struct {
	ID        int
	Base      vec.Int
	Members   []int
	Slot      []int
	Component int
	Coords    []int64
}

// refGroups is the reference grower's output: GroupOf and the groups.
type refGroups struct {
	GroupOf []int
	Groups  []refGroup
}

// growGroupsByVecSet is the reference Steps 3–5 on p's Steps 1–2: BFS
// region growing with a queue of group IDs, a visited set of probed
// bases, per-group slices and a rescan from point 0 for every new
// component. It also returns the number of points a new group found
// already owned by another group.
func (p *Partitioning) growGroupsByVecSet(seedBase vec.Int) (ref refGroups, conflicts int) {
	ps := p.PS
	r := p.R
	dl := p.Grouping.Scaled

	ref.GroupOf = make([]int, ps.NumPoints())
	for i := range ref.GroupOf {
		ref.GroupOf[i] = -1
	}
	visited := newVecSet(ps.NumPoints())

	cand := make(vec.Int, len(dl))
	membersAt := func(base vec.Int) (mem []int, slots []int) {
		for k := int64(0); k < r; k++ {
			for j := range cand {
				cand[j] = base[j] + k*dl[j]
			}
			if idx := ps.IndexOf(cand); idx >= 0 {
				mem = append(mem, idx)
				slots = append(slots, int(k))
			}
		}
		return mem, slots
	}

	tryCreate := func(base vec.Int, comp int, coords []int64) bool {
		mem, slots := membersAt(base)
		var freeMem, freeSlots []int
		for i, m := range mem {
			if ref.GroupOf[m] < 0 {
				freeMem = append(freeMem, m)
				freeSlots = append(freeSlots, slots[i])
			}
		}
		if len(freeMem) == 0 {
			return false
		}
		conflicts += len(mem) - len(freeMem)
		id := len(ref.Groups)
		for _, m := range freeMem {
			ref.GroupOf[m] = id
		}
		ref.Groups = append(ref.Groups, refGroup{
			ID: id, Base: base.Clone(), Members: freeMem, Slot: freeSlots,
			Component: comp, Coords: append([]int64{}, coords...),
		})
		return true
	}

	nextUngrouped := func() int {
		for i := range ps.NumPoints() {
			if ref.GroupOf[i] < 0 {
				return i
			}
		}
		return -1
	}

	for comp := 0; ; comp++ {
		seed := nextUngrouped()
		if seed < 0 {
			return ref, conflicts
		}
		base := ps.Point(seed)
		if comp == 0 && seedBase != nil {
			base = seedBase.Clone()
		}
		var queue []int
		if tryCreate(base, comp, make([]int64, 1+len(p.Aux))) {
			queue = append(queue, len(ref.Groups)-1)
		}
		visited.add(base)
		for len(queue) > 0 {
			g := ref.Groups[queue[0]]
			queue = queue[1:]
			step := func(base vec.Int, axis int, delta int64) {
				if !visited.add(base) {
					return
				}
				c := append([]int64{}, g.Coords...)
				c[axis] += delta
				if tryCreate(base, comp, c) {
					queue = append(queue, len(ref.Groups)-1)
				}
			}
			step(g.Base.AddScaled(r, dl), 0, 1)
			step(g.Base.AddScaled(-r, dl), 0, -1)
			for j, a := range p.Aux {
				step(g.Base.Add(a.Scaled), 1+j, 1)
				step(g.Base.Sub(a.Scaled), 1+j, -1)
			}
		}
	}
}

// flatViews reads p's flat tables back as the reference grower's
// per-group slices, each member's slot derived from its group's base.
func flatViews(t *testing.T, name string, p *Partitioning) refGroups {
	t.Helper()
	var v refGroups
	for _, g := range p.GroupOf {
		v.GroupOf = append(v.GroupOf, int(g))
	}
	for g := range p.NumBlocks() {
		grp := refGroup{ID: g, Base: p.Base(g), Component: p.Component(g), Coords: []int64{}}
		for _, c := range p.Coords(g) {
			grp.Coords = append(grp.Coords, int64(c))
		}
		for _, m := range p.Members(g) {
			k, ok := p.slot(grp.Base, int(m))
			if !ok {
				t.Fatalf("%s: group %d member %d is off its group line", name, g, m)
			}
			grp.Members = append(grp.Members, int(m))
			grp.Slot = append(grp.Slot, int(k))
		}
		v.Groups = append(v.Groups, grp)
	}
	return v
}

// edgeStatsPerPair is the reference arc count the TIG build absorbed:
// every (projected point, dependence) pair, classified through GroupOf.
func edgeStatsPerPair(p *Partitioning) DepEdgeStats {
	ps := p.PS
	var s DepEdgeStats
	q := make(vec.Int, len(ps.Pi))
	lag := depLags(ps)
	for pt := range ps.NumPoints() {
		for dep := range ps.Deps {
			qi := lineTarget(ps, pt, dep, q)
			if qi < 0 {
				continue
			}
			arcs := int(fiberArcs(ps, pt, qi, lag[dep], ps.Stride()))
			s.Total += arcs
			if p.GroupOf[qi] != p.GroupOf[pt] {
				s.InterBlock += arcs
			}
		}
	}
	return s
}

// partitionAndCheck partitions ps under opt and runs
// checkGrowAgainstVecSet on the result.
func partitionAndCheck(t *testing.T, name string, ps *project.Structure, opt Options) {
	t.Helper()
	p, err := Partition(ps, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkGrowAgainstVecSet(t, name, p, opt.SeedBase)
}

// checkGrowAgainstVecSet compares the flat views of p's tables (see
// flatViews) with the reference region growing run on the same Steps 1–2
// and seed, and the TIG's arc counts with the per-pair reference. It also
// requires that no reference group overlaps an earlier one: every point a
// new group probes is either free or owned by a group with the same base.
func checkGrowAgainstVecSet(t *testing.T, name string, p *Partitioning, seedBase vec.Int) {
	t.Helper()
	if got, want := BuildTIG(p).EdgeStats(), edgeStatsPerPair(p); got != want {
		t.Fatalf("%s: TIG.EdgeStats = %+v, per-pair %+v", name, got, want)
	}
	view := flatViews(t, name, p)
	if p.Grouping == nil {
		// Every projected point is its own group.
		for i, g := range view.Groups {
			want := refGroup{ID: i, Base: p.PS.Point(i), Members: []int{i}, Slot: []int{0}, Coords: []int64{}}
			if !reflect.DeepEqual(g, want) || view.GroupOf[i] != i {
				t.Fatalf("%s: singleton group %d = %+v (GroupOf %d), want %+v", name, i, g, view.GroupOf[i], want)
			}
		}
		return
	}
	ref, conflicts := p.growGroupsByVecSet(seedBase)
	if conflicts != 0 {
		t.Fatalf("%s: reference grower found %d points already owned by another group", name, conflicts)
	}
	if !reflect.DeepEqual(view.GroupOf, ref.GroupOf) {
		t.Fatalf("%s: GroupOf = %v, reference %v", name, view.GroupOf, ref.GroupOf)
	}
	if len(view.Groups) != len(ref.Groups) {
		t.Fatalf("%s: %d groups, reference %d", name, len(view.Groups), len(ref.Groups))
	}
	for i := range view.Groups {
		if !reflect.DeepEqual(view.Groups[i], ref.Groups[i]) {
			t.Fatalf("%s: group %d = %+v, reference %+v", name, i, view.Groups[i], ref.Groups[i])
		}
	}
}

// checkGrowAllOptions runs partitionAndCheck at merge factors 1 to 10
// with and without auxiliary vectors.
func checkGrowAllOptions(t *testing.T, name string, ps *project.Structure) {
	t.Helper()
	for merge := int64(1); merge <= 10; merge++ {
		for _, noAux := range []bool{false, true} {
			partitionAndCheck(t, fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux), ps,
				Options{MergeFactor: merge, NoAux: noAux})
		}
	}
}

// TestGrowGroupsMatchesVecSet diffs the flat region growing against the
// visited-set reference on every built-in kernel (own and searched Π),
// generated nests of every shape, Example 2's pinned seed, a seed far
// outside the structure and one off the hyperplane. TestEdgeStatsMatchesWalkOnMissGrid runs the same
// diff over the miss grid's kernels and sizes.
func TestGrowGroupsMatchesVecSet(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, size := range []int64{2, 5, 9} {
			checkGrowAllOptions(t, fmt.Sprintf("%s/%d", name, size), projectKernel(t, name, size, false))
			checkGrowAllOptions(t, fmt.Sprintf("%s/%d searched", name, size), projectKernel(t, name, size, true))
		}
	}

	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; checked < 120; trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := project.Project(st, c.Pi)
		if err != nil {
			t.Fatal(err)
		}
		checkGrowAllOptions(t, c.Name, ps)
		checked++
	}

	// The third seed lies off the hyperplane Π·y = 0, so its probes
	// share table slots with points they are not.
	for _, seed := range []vec.Int{vec.NewInt(-3, -3, 6), vec.NewInt(99, -99, 0), vec.NewInt(-3, -3, 7)} {
		for _, noAux := range []bool{false, true} {
			partitionAndCheck(t, fmt.Sprintf("matmul/4 seed %v noAux=%v", seed, noAux), matmulProjected(t, 4),
				Options{SeedBase: seed, NoAux: noAux})
		}
	}
}

// TestGrowGroupsMatchesVecSetOnMapIndex runs the reference diff on a
// projection whose bounding box is too large for the dense lattice table,
// so the region growing probes through the map fallback's IndexOf: a
// 2-D nest under the non-primitive Π = (1000, 1000), whose scale factor
// s = 2·10^6 spreads the points 10^6 apart while r stays small.
func TestGrowGroupsMatchesVecSetOnMapIndex(t *testing.T) {
	st, err := loop.NewStructure(loop.NewRect("spread", []int64{0, 0}, []int64{5, 5}),
		vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, vec.NewInt(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Dense() {
		t.Fatal("the spread projection got a dense index; the case tests nothing")
	}
	checkGrowAllOptions(t, "spread", ps)
	partitionAndCheck(t, "spread, seed off the hyperplane", ps, Options{SeedBase: vec.NewInt(7, -3)})
}

// TestPartitionAllocsDoNotGrowWithGroups checks that Algorithm 1 makes
// the same number of allocations for stencil at sizes 32 and 128: the
// groups are carved from flat buffers and the probes reuse scratch, so
// only the buffers' sizes follow the number of groups.
func TestPartitionAllocsDoNotGrowWithGroups(t *testing.T) {
	allocs := func(size int64) float64 {
		ps := projectKernel(t, "stencil", size, false)
		return testing.AllocsPerRun(20, func() {
			if _, err := PartitionCtx(context.Background(), ps, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(128)
	if small != large {
		t.Fatalf("PartitionCtx allocates %v times for stencil/32 and %v for stencil/128, want equal", small, large)
	}
}
