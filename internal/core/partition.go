// Package core implements the paper's primary contribution: Algorithm 1,
// the partitioning of a nested loop's index set into blocks that minimize
// interblock communication while preserving the execution ordering of a
// hyperplane-method time function (§III), together with the Task
// Interaction Graph (TIG) over the partitioned blocks used by the mapping
// phase (§IV).
//
// Pipeline: loop.Structure → project.Structure → core.Partitioning.
//
//   - Step 1 picks the grouping vector: the projected dependence vector
//     d_l^p with the largest factor r_l; the group size is r = r_l.
//   - Step 2 picks β−1 auxiliary grouping vectors from D^p − {d_l^p} that
//     are linearly independent together with d_l^p, where
//     β = rank(mat(D^p)).
//   - Steps 3–5 grow groups region-by-region: starting from a seed group,
//     neighbouring groups are found along ±r·d_l^p (grouping axis) and
//     ±d_j^p (auxiliary axes); ungrouped lines seed new components.
//   - Step 6 pulls each group back to its block: all index points whose
//     projections fall in the group.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/project"
	"repro/internal/vec"
)

// Options tunes Algorithm 1. The zero value reproduces the paper's default
// behaviour with deterministic tie-breaking.
type Options struct {
	// GroupingChoice forces the grouping vector: 0 selects the first
	// maximal-r projected dependence (the paper's rule with a
	// deterministic tie-break); k > 0 forces NonzeroDeps()[k-1] (used by
	// the ablation benches).
	GroupingChoice int
	// NoAux disables auxiliary grouping vectors (ablation: grouping along
	// a single direction only).
	NoAux bool
	// SeedBase, when non-nil, is used as the base vertex of the first
	// group (in the scaled coordinates of the projected structure, i.e.
	// multiplied by s = Π·Π). The paper chooses this "arbitrarily" in
	// Step 3; pinning it reproduces a specific published grouping, e.g.
	// Example 2's G1 base (−1,−1,2) — scaled (−3,−3,6).
	SeedBase vec.Int
	// MergeFactor q > 1 coarsens the partitioning beyond the paper's r:
	// groups take q·r projected points along the grouping vector. This
	// deliberately RELAXES Theorem 1 — index points of the same block may
	// share a hyperplane and must then execute sequentially, stretching
	// the schedule — in exchange for fewer blocks and less interblock
	// communication. The granularity ablation quantifies the trade-off.
	// 0 and 1 mean the paper's exact grouping.
	MergeFactor int64
}

// DefaultOptions returns the paper-default options.
func DefaultOptions() Options { return Options{} }

// Group is one group of projected points (Definition 6) and, through the
// projection fibers, one partitioned block B_i.
type Group struct {
	// ID is the group's index in Partitioning.Groups.
	ID int
	// Base is the scaled base vertex v_0^p of the group. For boundary
	// groups the base may be a virtual lattice position outside V^p.
	Base vec.Int
	// Members holds indices into the projected structure's Points, in
	// order along the grouping vector (member k sits at Base + k·d_l^p).
	Members []int
	// Slot[k] is the within-group position of Members[k] (0..r-1); for
	// boundary groups Members may skip slots.
	Slot []int
	// Component identifies the region-growing component the group belongs
	// to (Step 3 re-seeds a new component for unreached lines).
	Component int
	// Coords are the integer lattice coordinates of the group's base
	// relative to its component seed: Coords[0] counts steps of r·d_l^p
	// along the grouping axis and Coords[1+j] counts steps of the j-th
	// auxiliary vector. Used by the mapping phase's recursive bisection.
	Coords []int64
}

// Partitioning is the result of Algorithm 1: G_Π(Q) = {B_0, …, B_{α−1}}.
type Partitioning struct {
	// PS is the projected structure the partitioning was computed from.
	PS *project.Structure
	// R is the group size r.
	R int64
	// Grouping is the grouping vector d_l^p; nil when every projected
	// dependence is zero (all dependences parallel to Π), in which case
	// each projected point forms its own group.
	Grouping *project.Dep
	// Aux holds the auxiliary grouping vectors (β−1 of them).
	Aux []project.Dep
	// Beta is rank(mat(D^p)).
	Beta int
	// Groups holds all groups; Groups[i].ID == i.
	Groups []Group
	// GroupOf maps a projected-point index to its group ID; a vertex's
	// block is the group of its projected point (see BlockOf).
	GroupOf []int
	// Conflicts counts projected points that could not be claimed by a
	// lattice-aligned group and were grouped by fallback seeding; always 0
	// for the convex index sets of the paper.
	Conflicts int
	// MergeFactor records Options.MergeFactor (1 for the paper's exact
	// grouping). When > 1, Theorem 1 is deliberately relaxed: blocks may
	// hold same-hyperplane points.
	MergeFactor int64
}

// NumBlocks returns α, the number of partitioned blocks.
func (p *Partitioning) NumBlocks() int { return len(p.Groups) }

// BlockPoints returns the index points of block g in execution-time order.
func (p *Partitioning) BlockPoints(g int) []vec.Int {
	var out []vec.Int
	for _, pi := range p.Groups[g].Members {
		out = append(out, p.PS.FiberPoints(pi)...)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := p.PS.Pi.Dot(out[i]), p.PS.Pi.Dot(out[j])
		if ti != tj {
			return ti < tj
		}
		return out[i].Cmp(out[j]) < 0
	})
	return out
}

// BlockSize returns the number of index points in block g.
func (p *Partitioning) BlockSize(g int) int {
	n := 0
	for _, pi := range p.Groups[g].Members {
		n += p.PS.Fibers[pi].Len
	}
	return n
}

// BlockOf maps every original vertex index (into PS.Orig.V) to its block,
// the group of the vertex's projected point (Step 6): GroupOf ∘ LineOf.
// It costs |V| and returns a fresh slice the caller owns; the
// partitioning itself holds no per-vertex table.
func (p *Partitioning) BlockOf() []int {
	out := p.PS.LineOf()
	for vi, pt := range out {
		out[vi] = p.GroupOf[pt]
	}
	return out
}

// MaxBlockSize returns the largest block load (the paper's W for the
// most-loaded processor when each block maps to its own processor).
func (p *Partitioning) MaxBlockSize() int {
	m := 0
	for g := range p.Groups {
		if s := p.BlockSize(g); s > m {
			m = s
		}
	}
	return m
}

// Partition runs Algorithm 1 on the projected structure.
func Partition(ps *project.Structure, opt Options) (*Partitioning, error) {
	return PartitionCtx(context.Background(), ps, opt)
}

// PartitionCtx is Partition with cooperative cancellation: the Step 3–5
// region-growing sweep polls ctx between BFS expansions, so a caller's
// deadline bounds the partitioning of even huge projected structures. A nil
// ctx means context.Background().
func PartitionCtx(ctx context.Context, ps *project.Structure, opt Options) (*Partitioning, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ps.Points) == 0 {
		return nil, errors.New("core: empty projected structure")
	}
	if opt.MergeFactor < 0 {
		return nil, fmt.Errorf("core: negative merge factor %d", opt.MergeFactor)
	}
	merge := opt.MergeFactor
	if merge < 1 {
		merge = 1
	}
	p := &Partitioning{PS: ps, R: 1, MergeFactor: merge}

	nz := ps.NonzeroDeps()

	// β = rank(mat(D^p)); zero columns do not contribute.
	cols := make([]vec.Int, len(nz))
	for i, d := range nz {
		cols[i] = d.Scaled
	}
	p.Beta = vec.RankOfIntColumns(cols...)

	if len(nz) == 0 {
		// Every dependence is parallel to Π: each projected point is its
		// own group and no interblock dependences exist along D.
		p.singletonGroups()
		return p, nil
	}

	// Step 1: grouping vector = max-r projected dependence (deterministic
	// tie-break: first in NonzeroDeps order), unless overridden.
	var gi int
	if opt.GroupingChoice > 0 {
		gi = opt.GroupingChoice - 1
		if gi >= len(nz) {
			return nil, fmt.Errorf("core: grouping choice %d out of range (%d nonzero projected deps)", opt.GroupingChoice, len(nz))
		}
	} else {
		for i, d := range nz {
			if d.R > nz[gi].R {
				gi = i
			}
		}
	}
	gvec := nz[gi]
	p.Grouping = &gvec
	// r = max_i r_i regardless of which vector is chosen; MergeFactor > 1
	// coarsens beyond the paper's r (relaxing Theorem 1).
	p.R = ps.GroupSizeR() * merge

	// Step 2: auxiliary vectors — greedily extend {d_l^p} to a linearly
	// independent set of size β from the remaining projected deps.
	if !opt.NoAux {
		chosen := []vec.Rat{gvec.Scaled.ToRat()}
		for i, d := range nz {
			if i == gi || len(chosen) == p.Beta {
				continue
			}
			cand := append(append([]vec.Rat{}, chosen...), d.Scaled.ToRat())
			if vec.LinearlyIndependent(cand...) {
				chosen = cand
				p.Aux = append(p.Aux, d)
			}
		}
	}

	// Steps 3–5: region growing. Step 6, pulling each group back to its
	// block, is BlockOf.
	if err := p.growGroups(ctx, opt.SeedBase); err != nil {
		return nil, err
	}
	return p, nil
}

// singletonGroups makes every projected point its own group.
func (p *Partitioning) singletonGroups() {
	ps := p.PS
	p.GroupOf = make([]int, len(ps.Points))
	for i, pt := range ps.Points {
		p.Groups = append(p.Groups, Group{
			ID: i, Base: pt.Clone(), Members: []int{i}, Slot: []int{0},
			Component: 0, Coords: []int64{},
		})
		p.GroupOf[i] = i
	}
}

// vecSet is a visited-set over integer lattice positions, keyed by FNV-1a
// hashing of the raw coordinates with bucket chaining. The region growing
// probes it once per candidate group base; hashing the int64 words directly
// avoids the decimal string formatting a map[string]bool key would pay.
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

// growCheckEvery is how often (in BFS queue pops) growGroups polls the
// context, amortizing the cancellation check over the sweep.
const growCheckEvery = 1024

// growGroups implements Steps 3–5: BFS region growing from seed groups.
// seedBase, when non-nil, pins the base vertex of the very first group.
// It polls ctx every growCheckEvery expansions and returns its error on
// cancellation.
func (p *Partitioning) growGroups(ctx context.Context, seedBase vec.Int) error {
	ps := p.PS
	r := p.R
	dl := p.Grouping.Scaled

	p.GroupOf = make([]int, len(ps.Points))
	for i := range p.GroupOf {
		p.GroupOf[i] = -1
	}
	visited := newVecSet(len(ps.Points))

	// membersAt returns the projected points present at base + k·d_l^p for
	// k in [0, r), with their slots. The candidate position is built in a
	// reused scratch vector, so the r-step probe allocates nothing.
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

	// tryCreate claims the free members at base and appends a new group.
	// Points already owned by another group are left alone (counted as
	// conflicts when the overlap is partial).
	tryCreate := func(base vec.Int, comp int, coords []int64) (created bool, anyPresent bool) {
		mem, slots := membersAt(base)
		if len(mem) == 0 {
			return false, false
		}
		var freeMem []int
		var freeSlots []int
		for i, m := range mem {
			if p.GroupOf[m] < 0 {
				freeMem = append(freeMem, m)
				freeSlots = append(freeSlots, slots[i])
			}
		}
		if len(freeMem) == 0 {
			return false, true
		}
		if len(freeMem) < len(mem) {
			p.Conflicts += len(mem) - len(freeMem)
		}
		id := len(p.Groups)
		g := Group{
			ID: id, Base: base.Clone(), Members: freeMem, Slot: freeSlots,
			Component: comp, Coords: append([]int64{}, coords...),
		}
		for _, m := range freeMem {
			p.GroupOf[m] = id
		}
		p.Groups = append(p.Groups, g)
		return true, true
	}

	nextUngrouped := func() int {
		for i := range ps.Points {
			if p.GroupOf[i] < 0 {
				return i
			}
		}
		return -1
	}

	comp := 0
	pops := 0
	for {
		seed := nextUngrouped()
		if seed < 0 {
			break
		}
		// Step 3: seed a group at the first ungrouped point (the paper
		// selects a line and a point on it arbitrarily; lexicographic
		// order makes the choice deterministic). A caller-pinned base
		// overrides the choice for the first component.
		var base vec.Int
		if comp == 0 && seedBase != nil {
			base = seedBase.Clone()
		} else {
			base = ps.Points[seed]
		}
		coords := make([]int64, 1+len(p.Aux))
		queue := []int{}
		if created, _ := tryCreate(base, comp, coords); created {
			queue = append(queue, len(p.Groups)-1)
		}
		visited.add(base)

		// Step 4: BFS over forward/backward neighbours along the grouping
		// vector (stride r·d_l^p) and each auxiliary vector (stride d_j^p).
		for len(queue) > 0 {
			gid := queue[0]
			queue = queue[1:]
			if pops++; pops%growCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			g := p.Groups[gid]

			type step struct {
				base   vec.Int
				coords []int64
			}
			var steps []step
			addStep := func(base vec.Int, axis int, delta int64) {
				c := append([]int64{}, g.Coords...)
				c[axis] += delta
				steps = append(steps, step{base: base, coords: c})
			}
			addStep(g.Base.AddScaled(r, dl), 0, 1)
			addStep(g.Base.AddScaled(-r, dl), 0, -1)
			for j, a := range p.Aux {
				addStep(g.Base.Add(a.Scaled), 1+j, 1)
				addStep(g.Base.Sub(a.Scaled), 1+j, -1)
			}
			for _, st := range steps {
				if !visited.add(st.base) {
					continue
				}
				if created, _ := tryCreate(st.base, comp, st.coords); created {
					queue = append(queue, len(p.Groups)-1)
				}
			}
		}
		comp++
	}
	return nil
}

// BlockOfPoint returns the block ID of an index point, or -1 when x is
// not a vertex: the group of its projected point.
func (p *Partitioning) BlockOfPoint(x vec.Int) int {
	if !p.PS.Orig.HasVertex(x) {
		return -1
	}
	return p.GroupOf[p.PS.IndexOf(p.PS.ProjectionOf(x))]
}

// DepEdgeStats classifies dependence arcs as intra- or inter-block.
type DepEdgeStats struct {
	Total      int // all dependence arcs in Q
	InterBlock int // arcs whose endpoints lie in different blocks
}

// EdgeStats counts total and interblock dependence arcs (the paper's
// "number of data dependencies between index points is 33, and only 12 of
// them require interprocessor communication" for loop L1). It counts them
// per (projected point, dependence) pair as BuildTIG does, so it costs
// |V^p|·m rather than |V|·m, and InterBlock equals the TIG's
// TotalTraffic.
func (p *Partitioning) EdgeStats() DepEdgeStats {
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
			arcs := int(fiberArcs(ps, pt, qi, lag[dep]))
			s.Total += arcs
			if p.GroupOf[qi] != p.GroupOf[pt] {
				s.InterBlock += arcs
			}
		}
	}
	return s
}
