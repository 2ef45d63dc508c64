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

// growGroupsByVecSet is the reference Steps 3–5: BFS region growing with
// a queue of group IDs, a visited set of probed bases, per-group slices
// and a rescan from point 0 for every new component.
func (p *Partitioning) growGroupsByVecSet(seedBase vec.Int) {
	ps := p.PS
	r := p.R
	dl := p.Grouping.Scaled

	p.GroupOf = make([]int, len(ps.Points))
	for i := range p.GroupOf {
		p.GroupOf[i] = -1
	}
	visited := newVecSet(len(ps.Points))

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
			if p.GroupOf[m] < 0 {
				freeMem = append(freeMem, m)
				freeSlots = append(freeSlots, slots[i])
			}
		}
		if len(freeMem) == 0 {
			return false
		}
		p.Conflicts += len(mem) - len(freeMem)
		id := len(p.Groups)
		for _, m := range freeMem {
			p.GroupOf[m] = id
		}
		p.Groups = append(p.Groups, Group{
			ID: id, Base: base.Clone(), Members: freeMem, Slot: freeSlots,
			Component: comp, Coords: append([]int64{}, coords...),
		})
		return true
	}

	nextUngrouped := func() int {
		for i := range ps.Points {
			if p.GroupOf[i] < 0 {
				return i
			}
		}
		return -1
	}

	for comp := 0; ; comp++ {
		seed := nextUngrouped()
		if seed < 0 {
			return
		}
		base := ps.Points[seed]
		if comp == 0 && seedBase != nil {
			base = seedBase.Clone()
		}
		var queue []int
		if tryCreate(base, comp, make([]int64, 1+len(p.Aux))) {
			queue = append(queue, len(p.Groups)-1)
		}
		visited.add(base)
		for len(queue) > 0 {
			g := p.Groups[queue[0]]
			queue = queue[1:]
			step := func(base vec.Int, axis int, delta int64) {
				if !visited.add(base) {
					return
				}
				c := append([]int64{}, g.Coords...)
				c[axis] += delta
				if tryCreate(base, comp, c) {
					queue = append(queue, len(p.Groups)-1)
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

// edgeStatsPerPair is the reference arc count the TIG build absorbed:
// every (projected point, dependence) pair, classified through GroupOf.
func edgeStatsPerPair(p *Partitioning) DepEdgeStats {
	ps := p.PS
	var s DepEdgeStats
	q := make(vec.Int, len(ps.Pi))
	lag := depLags(ps)
	for pt := range ps.Points {
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

// checkGrowAgainstVecSet compares p's Groups, GroupOf and Conflicts with
// the reference region growing run on the same Steps 1–2 and seed, and
// the TIG's arc counts with the per-pair reference.
func checkGrowAgainstVecSet(t *testing.T, name string, p *Partitioning, seedBase vec.Int) {
	t.Helper()
	if got, want := BuildTIG(p).EdgeStats(), edgeStatsPerPair(p); got != want {
		t.Fatalf("%s: TIG.EdgeStats = %+v, per-pair %+v", name, got, want)
	}
	if p.Grouping == nil {
		// Every projected point is its own group.
		for i, g := range p.Groups {
			want := Group{ID: i, Base: p.PS.Points[i], Members: []int{i}, Slot: []int{0}, Coords: []int64{}}
			if !reflect.DeepEqual(g, want) || p.GroupOf[i] != i {
				t.Fatalf("%s: singleton group %d = %+v (GroupOf %d), want %+v", name, i, g, p.GroupOf[i], want)
			}
		}
		return
	}
	ref := &Partitioning{PS: p.PS, R: p.R, Grouping: p.Grouping, Aux: p.Aux, Beta: p.Beta, MergeFactor: p.MergeFactor}
	ref.growGroupsByVecSet(seedBase)
	if p.Conflicts != ref.Conflicts {
		t.Fatalf("%s: Conflicts = %d, reference %d", name, p.Conflicts, ref.Conflicts)
	}
	if !reflect.DeepEqual(p.GroupOf, ref.GroupOf) {
		t.Fatalf("%s: GroupOf = %v, reference %v", name, p.GroupOf, ref.GroupOf)
	}
	if len(p.Groups) != len(ref.Groups) {
		t.Fatalf("%s: %d groups, reference %d", name, len(p.Groups), len(ref.Groups))
	}
	for i := range p.Groups {
		if !reflect.DeepEqual(p.Groups[i], ref.Groups[i]) {
			t.Fatalf("%s: group %d = %+v, reference %+v", name, i, p.Groups[i], ref.Groups[i])
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
// generated nests of every shape, Example 2's pinned seed and a seed far
// outside the structure. TestEdgeStatsMatchesWalkOnMissGrid runs the same
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

	for _, seed := range []vec.Int{vec.NewInt(-3, -3, 6), vec.NewInt(99, -99, 0)} {
		for _, noAux := range []bool{false, true} {
			partitionAndCheck(t, fmt.Sprintf("matmul/4 seed %v noAux=%v", seed, noAux), matmulProjected(t, 4),
				Options{SeedBase: seed, NoAux: noAux})
		}
	}
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
