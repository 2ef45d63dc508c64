package mapping

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
)

// refSlices is a reference Phase I: it bisects the items recursively dim
// times, along axis step mod axes at each step, each half sorted by
// (component, coordinate on the axis, the other coordinates, ID) and
// split at the upper median, and returns every item's slice index per
// axis.
func refSlices(items []Item, dim int) map[int][]int {
	axes := 1
	for _, it := range items {
		axes = max(axes, len(it.Coords))
	}
	coord := func(it Item, a int) int64 {
		switch {
		case len(it.Coords) == 0 && a == 0:
			return int64(it.ID)
		case a < len(it.Coords):
			return int64(it.Coords[a])
		}
		return 0
	}
	out := map[int][]int{}
	var split func(its []Item, step int, idx []int)
	split = func(its []Item, step int, idx []int) {
		if step == dim {
			for _, it := range its {
				out[it.ID] = idx
			}
			return
		}
		axis := step % axes
		its = slices.Clone(its)
		sort.SliceStable(its, func(i, j int) bool {
			a, b := its[i], its[j]
			if a.Component != b.Component {
				return a.Component < b.Component
			}
			for o := -1; o < axes; o++ {
				ax := o
				if o < 0 {
					ax = axis
				} else if o == axis {
					continue
				}
				if ca, cb := coord(a, ax), coord(b, ax); ca != cb {
					return ca < cb
				}
			}
			return a.ID < b.ID
		})
		mid := (len(its) + 1) / 2
		lo, hi := slices.Clone(idx), slices.Clone(idx)
		lo[axis], hi[axis] = 2*idx[axis], 2*idx[axis]+1
		split(its[:mid], step+1, lo)
		split(its[mid:], step+1, hi)
	}
	split(items, 0, make([]int, axes))
	return out
}

// checkAxisNeighboursOneHop maps p onto a dim-cube and checks it against
// the reference bisection: blocks in the same reference cluster share a
// node, and clusters whose slice indices differ by one along a single
// axis sit on nodes one hop apart.
func checkAxisNeighboursOneHop(t *testing.T, name string, p *core.Partitioning, dim int) {
	t.Helper()
	res, err := MapPartitioning(p, dim, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := refSlices(ItemsOf(p), dim)
	for a := range p.NumBlocks() {
		for b := a + 1; b < p.NumBlocks(); b++ {
			sa, sb := ref[a], ref[b]
			apart, gap := 0, 0
			for k := range sa {
				if sa[k] != sb[k] {
					apart++
					gap = sa[k] - sb[k]
				}
			}
			hops := res.Cube.Distance(res.NodeOf[a], res.NodeOf[b])
			if apart == 0 && hops != 0 {
				t.Fatalf("%s: blocks %d and %d share cluster %v but sit %d hops apart", name, a, b, sa, hops)
			}
			if apart == 1 && (gap == 1 || gap == -1) && hops != 1 {
				t.Fatalf("%s: blocks %d and %d in axis-neighbour clusters %v and %v sit %d hops apart",
					name, a, b, sa, sb, hops)
			}
		}
	}
}

// TestAxisNeighbourClustersOneHopOnGeneratedNests runs Algorithm 2 on the
// partitionings of generated nests of every shape, with and without
// auxiliary vectors and at merge factors 1 and 3, onto cubes of dimension
// 1 to 5.
func TestAxisNeighbourClustersOneHopOnGeneratedNests(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; checked < 60; trial++ {
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
		for _, merge := range []int64{1, 3} {
			for _, noAux := range []bool{false, true} {
				p, err := core.Partition(ps, core.Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				for dim := 1; dim <= 5; dim++ {
					checkAxisNeighboursOneHop(t, fmt.Sprintf("%s merge=%d noAux=%v dim=%d", c.Name, merge, noAux, dim), p, dim)
				}
			}
		}
		checked++
	}
}
