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
	"slices"
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
	if opt.SeedBase != nil && len(opt.SeedBase) != len(ps.Pi) {
		return nil, fmt.Errorf("core: seed base arity %d, structure dim %d", len(opt.SeedBase), len(ps.Pi))
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

// singletonGroups makes every projected point its own group. The bases
// share one flat buffer and the members and slots another, like the
// groups of growGroups.
func (p *Partitioning) singletonGroups() {
	ps := p.PS
	np, n := len(ps.Points), len(ps.Pi)
	p.GroupOf = make([]int, np)
	ms := make([]int, 2*np)
	bases := make([]int64, np*n)
	p.Groups = make([]Group, np)
	for i, pt := range ps.Points {
		ms[i] = i // every slot is 0
		base := bases[i*n : (i+1)*n : (i+1)*n]
		copy(base, pt)
		p.Groups[i] = Group{
			ID: i, Base: base, Members: ms[i : i+1 : i+1], Slot: ms[np+i : np+i+1 : np+i+1],
			Component: 0, Coords: []int64{},
		}
		p.GroupOf[i] = i
	}
}

// growCheckEvery is how often (in BFS queue pops) growGroups polls the
// context, amortizing the cancellation check over the sweep.
const growCheckEvery = 1024

// grower holds the region growing's state on flat storage. Group g's
// base and lattice coordinates are rec[g*w : g*w+n] and
// rec[g*w+n : (g+1)*w] with w = n + axes, its members and slots are
// members[start[g]:start[g+1]] and slots[start[g]:start[g+1]], and its
// component is comp[g]. Every projected point joins exactly one group, so
// members and slots are exactly |V^p| long and fill in creation order.
type grower struct {
	ps      *project.Structure
	r       int64
	dl      vec.Int
	n, w    int
	groupOf []int
	members []int
	slots   []int
	rec     []int64
	start   []int
	comp    []int
	// cand is scratch for one probed lattice position.
	cand vec.Int
}

// groups returns the number of groups created so far.
func (g *grower) groups() int { return len(g.comp) }

// base returns group id's base in rec.
func (g *grower) base(id int) []int64 { return g.rec[id*g.w : id*g.w+g.n] }

// tryCreate claims the free projected points at base + k·d_l^p for k in
// [0, r) as a new group of component comp with the given lattice
// coordinates, and reports whether it made one. Points already owned by
// another group are left alone; the reference grower's test asserts that
// a new group never finds one (no partial overlap) on its input grid.
//
// No visited set is needed: a position whose probe created nothing had no
// free point, and one that created a group claimed every free point, so
// probing a position again can never create a group, and ownership only
// grows. A second probe of a grown position returns at its first owned
// point, whose group has this base; other repeats re-scan their r
// positions and find nothing free.
func (g *grower) tryCreate(base []int64, comp int, coords []int64) bool {
	ps, cand := g.ps, g.cand
	at := g.start[len(g.start)-1]
	free := 0
	for k := int64(0); k < g.r; k++ {
		for j := range cand {
			cand[j] = base[j] + k*g.dl[j]
		}
		idx := ps.IndexOf(cand)
		if idx < 0 {
			continue
		}
		if o := g.groupOf[idx]; o >= 0 {
			if vec.Int(g.base(o)).Equal(base) {
				return false
			}
			continue
		}
		g.members[at+free], g.slots[at+free] = idx, int(k)
		free++
	}
	if free == 0 {
		return false
	}
	id := g.groups()
	for _, m := range g.members[at : at+free] {
		g.groupOf[m] = id
	}
	g.rec = append(append(g.rec, base...), coords...)
	g.start = append(g.start, at+free)
	g.comp = append(g.comp, comp)
	return true
}

// growGroups implements Steps 3–5: BFS region growing from seed groups.
// seedBase, when non-nil, pins the base vertex of the very first group.
// It polls ctx every growCheckEvery expansions and returns its error on
// cancellation.
//
// Groups are created in BFS order and every created group is queued, so
// the queue of a component is the run of groups created since its seed:
// a pop is one step of an index. The groups are grown on flat scratch
// (see grower) and carved at the end from exactly sized buffers, so the
// number of allocations does not grow with the number of groups or
// probes unless more groups than the scratch's estimate sit on the
// boundary.
func (p *Partitioning) growGroups(ctx context.Context, seedBase vec.Int) error {
	ps := p.PS
	np, n, axes := len(ps.Points), len(ps.Pi), 1+len(p.Aux)
	p.GroupOf = make([]int, np)
	for i := range p.GroupOf {
		p.GroupOf[i] = -1
	}
	ms := make([]int, 2*np)
	// About |V^p|/r groups fill the interior; the slack covers partial
	// groups on the boundary, and append grows the scratch past it.
	est := min(np, np/int(p.R)+16)
	w := n + axes
	scratch := make([]int64, 3*n+2*axes)
	g := &grower{
		ps: ps, r: p.R, dl: p.Grouping.Scaled, n: n, w: w,
		groupOf: p.GroupOf, members: ms[:np:np], slots: ms[np:],
		rec:   make([]int64, 0, est*w),
		start: append(make([]int, 0, est+1), 0),
		comp:  make([]int, 0, est),
		cand:  scratch[:n:n],
	}
	// base and coords hold the group being expanded, next and nextCoords
	// the neighbour being probed.
	base, next := vec.Int(scratch[n:2*n:2*n]), vec.Int(scratch[2*n:3*n:3*n])
	coords, nextCoords := scratch[3*n:3*n+axes:3*n+axes], scratch[3*n+axes:]

	// probe tries the neighbour of the expanded group at
	// base + delta·stride·v, delta steps along coordinate axis.
	probe := func(comp int, v vec.Int, stride int64, axis int, delta int64) {
		for j := range next {
			next[j] = base[j] + delta*stride*v[j]
		}
		copy(nextCoords, coords)
		nextCoords[axis] += delta
		g.tryCreate(next, comp, nextCoords)
	}

	dl := p.Grouping.Scaled
	pops, cursor := 0, 0
	for comp := 0; ; comp++ {
		// Step 3: seed a group at the first ungrouped point (the paper
		// selects a line and a point on it arbitrarily; lexicographic
		// order makes the choice deterministic). A caller-pinned base
		// overrides the choice for the first component. Points are
		// never ungrouped again, so the scan resumes where it stopped.
		for cursor < np && p.GroupOf[cursor] >= 0 {
			cursor++
		}
		if cursor == np {
			break
		}
		if comp == 0 && seedBase != nil {
			copy(next, seedBase)
		} else {
			copy(next, ps.Points[cursor])
		}
		clear(nextCoords)
		head := g.groups()
		g.tryCreate(next, comp, nextCoords)

		// Step 4: BFS over forward/backward neighbours along the grouping
		// vector (stride r·d_l^p) and each auxiliary vector (stride d_j^p).
		for ; head < g.groups(); head++ {
			if pops++; pops%growCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rec := g.rec[head*w : (head+1)*w]
			copy(base, rec[:n])
			copy(coords, rec[n:])
			probe(comp, dl, p.R, 0, 1)
			probe(comp, dl, p.R, 0, -1)
			for j, a := range p.Aux {
				probe(comp, a.Scaled, 1, 1+j, 1)
				probe(comp, a.Scaled, 1, 1+j, -1)
			}
		}
	}

	// Carve the groups: bases and coordinates from one exactly sized copy
	// of rec, members and slots from the shared point-sized buffers.
	flat := slices.Clone(g.rec)
	p.Groups = make([]Group, g.groups())
	for id := range p.Groups {
		rec := flat[id*w : (id+1)*w : (id+1)*w]
		s, e := g.start[id], g.start[id+1]
		p.Groups[id] = Group{
			ID: id, Base: rec[:n:n], Members: g.members[s:e:e], Slot: g.slots[s:e:e],
			Component: g.comp[id], Coords: rec[n:],
		}
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
