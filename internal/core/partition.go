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
	"math"
	"sort"

	"repro/internal/ints"
	"repro/internal/loop"
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
	// 0 and 1 mean the paper's exact grouping. Any larger q is admitted;
	// one whose r·q or R·d_l^p overflows int64 is refused with an error
	// wrapping loop.ErrTooLarge.
	MergeFactor int64
}

// DefaultOptions returns the paper-default options.
func DefaultOptions() Options { return Options{} }

// Partitioning is the result of Algorithm 1: G_Π(Q) = {B_0, …, B_{α−1}}.
//
// Algorithm 1 labels the projected lattice: every projected point gets a
// group, and every group lattice coordinates and a component. The labels
// live in flat, pointer-free tables read through NumBlocks, Members,
// Coords and Component. A group's base is not stored: it is its
// component's seed plus the lattice steps its coordinates count (see
// Base). Nor is a member's within-group slot: member k of group g sits at
// Base(g) + k·d_l^p (see slot).
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
	// GroupOf maps a projected-point index to its group ID; a vertex's
	// block is the group of its projected point (see BlockOf).
	GroupOf []int32
	// MergeFactor records Options.MergeFactor (1 for the paper's exact
	// grouping). When > 1, Theorem 1 is deliberately relaxed: blocks may
	// hold same-hyperplane points.
	MergeFactor int64

	// members lists the groups' projected points, group after group, each
	// group's in slot order: group g holds members[start[g]:start[g+1]].
	members []int32
	start   []int32
	// comp[g] is the region-growing component of group g (Step 3
	// re-seeds a new component for unreached lines).
	comp []int32
	// coords holds every group's lattice coordinates, axes entries per
	// group (see Coords). A coordinate counts steps from the component's
	// seed along a BFS path of created groups, so its magnitude is below
	// the number of groups, which fits an int32.
	coords []int32
	axes   int
	// seeds holds the scaled base of every component's first group, n
	// entries per component, indexed by component; nil for singleton
	// groups, whose base is their point.
	seeds []int64
}

// NumBlocks returns α, the number of partitioned blocks.
func (p *Partitioning) NumBlocks() int { return len(p.comp) }

// Members returns the projected points of group g (indices into
// PS's points) in slot order along the grouping vector. The slice is the
// partitioning's; callers must not modify it.
func (p *Partitioning) Members(g int) []int32 {
	s, e := p.start[g], p.start[g+1]
	return p.members[s:e:e]
}

// Base returns the scaled base vertex v_0^p of group g in a fresh
// vector. For boundary groups the base may be a virtual lattice position
// outside V^p.
func (p *Partitioning) Base(g int) vec.Int {
	return p.baseInto(make(vec.Int, len(p.PS.Pi)), g)
}

// baseInto writes group g's base into dst and returns it: its component's
// seed plus Coords[0]·r·d_l^p plus Coords[1+j]·d_j^p, the steps that
// region growing took to reach it. A singleton group's base is its point.
// The terms are summed in wrapping int64 arithmetic, which is exact
// because the base itself fits (checkReach kept every probe in int64).
func (p *Partitioning) baseInto(dst vec.Int, g int) vec.Int {
	if p.Grouping == nil {
		copy(dst, p.PS.Point(g))
		return dst
	}
	n := len(dst)
	c := p.Coords(g)
	copy(dst, p.seeds[int(p.comp[g])*n:])
	steps := int64(c[0]) * p.R
	for j, d := range p.Grouping.Scaled {
		dst[j] += steps * d
	}
	for i, a := range p.Aux {
		for j, d := range a.Scaled {
			dst[j] += int64(c[1+i]) * d
		}
	}
	return dst
}

// Coords returns the integer lattice coordinates of group g's base
// relative to its component seed: Coords[0] counts steps of r·d_l^p along
// the grouping axis and Coords[1+j] counts steps of the j-th auxiliary
// vector. Singleton groups (no grouping vector) have none. The mapping
// phase's recursive bisection reads them; callers must not modify them.
func (p *Partitioning) Coords(g int) []int32 {
	return p.coords[g*p.axes : (g+1)*p.axes : (g+1)*p.axes]
}

// Component returns the region-growing component of group g.
func (p *Partitioning) Component(g int) int { return int(p.comp[g]) }

// slot returns the k with point pt = base + k·d_l^p, where base is a
// group's Base, and whether one exists; without a grouping vector the
// point must be the base (k = 0).
func (p *Partitioning) slot(base vec.Int, pt int) (int64, bool) {
	x := p.PS.Point(pt)
	if p.Grouping == nil {
		return 0, x.Equal(base)
	}
	dl := p.Grouping.Scaled
	var k int64
	for j, d := range dl {
		if d != 0 {
			k = (x[j] - base[j]) / d
			break
		}
	}
	for j, d := range dl {
		if x[j] != base[j]+k*d {
			return 0, false
		}
	}
	return k, true
}

// BlockPoints returns the index points of block g in execution-time order.
func (p *Partitioning) BlockPoints(g int) []vec.Int {
	var out []vec.Int
	for _, pi := range p.Members(g) {
		out = append(out, p.PS.FiberPoints(int(pi))...)
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
	for _, pi := range p.Members(g) {
		n += int(p.PS.Fibers[pi].Len)
	}
	return n
}

// BlockOf maps every original vertex index (its position in PS.Orig.Points) to
// its block, the group of the vertex's projected point (Step 6):
// GroupOf ∘ LineOf.
// It costs |V| and returns a fresh slice the caller owns; the
// partitioning itself holds no per-vertex table.
func (p *Partitioning) BlockOf() []int {
	out := p.PS.LineOf()
	for vi, pt := range out {
		out[vi] = int(p.GroupOf[pt])
	}
	return out
}

// Partition runs Algorithm 1 on the projected structure.
func Partition(ps *project.Structure, opt Options) (*Partitioning, error) {
	return PartitionCtx(context.Background(), ps, opt)
}

// ErrGroupingChoice marks an Options.GroupingChoice past the structure's
// nonzero projected dependences: the caller's mistake, not the
// planner's.
var ErrGroupingChoice = errors.New("grouping choice out of range")

// PartitionCtx is Partition with cooperative cancellation: the Step 3–5
// region-growing sweep polls ctx between BFS expansions, so a caller's
// deadline bounds the partitioning of even huge projected structures. A nil
// ctx means context.Background(). It builds the structure's Stage for
// this one call; callers that partition one structure repeatedly keep a
// Stage and call its PartitionCtx.
func PartitionCtx(ctx context.Context, ps *project.Structure, opt Options) (*Partitioning, error) {
	return NewStage(ps).PartitionCtx(ctx, opt)
}

// PartitionCtx runs Algorithm 1 on the stage's structure, as the
// package-level PartitionCtx does.
func (s *Stage) PartitionCtx(ctx context.Context, opt Options) (*Partitioning, error) {
	return s.PartitionInto(ctx, opt, nil)
}

// PartitionInto is PartitionCtx building the partitioning into t's
// recycled memory (see Tables); a nil t builds a kept partitioning, as
// PartitionCtx does.
func (s *Stage) PartitionInto(ctx context.Context, opt Options, t *Tables) (*Partitioning, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ps := s.PS
	if ps.NumPoints() == 0 {
		return nil, errors.New("core: empty projected structure")
	}
	if ps.NumPoints() > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d projected points exceed the int32 group tables: %w", ps.NumPoints(), loop.ErrTooLarge)
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
	p := t.partitioning()
	*p = Partitioning{PS: ps, R: 1, MergeFactor: merge, Beta: s.beta}
	if len(s.nz) == 0 {
		// Every dependence is parallel to Π: each projected point is its
		// own group and no interblock dependences exist along D.
		p.singletonGroups(t)
		return p, nil
	}

	// Step 1: grouping vector = max-r projected dependence (deterministic
	// tie-break: first in NonzeroDeps order), unless overridden.
	gi := s.first
	if opt.GroupingChoice > 0 {
		gi = opt.GroupingChoice - 1
		if gi >= len(s.nz) {
			return nil, fmt.Errorf("core: %w: choice %d, %d nonzero projected deps", ErrGroupingChoice, opt.GroupingChoice, len(s.nz))
		}
	}
	p.Grouping = &s.nz[gi]
	// r = max_i r_i regardless of which vector is chosen; MergeFactor > 1
	// coarsens beyond the paper's r (relaxing Theorem 1).
	r, ok := ints.CheckedMul(ps.GroupSizeR(), merge)
	if !ok {
		return nil, fmt.Errorf("core: merge factor %d: group size r·q overflows int64: %w", merge, loop.ErrTooLarge)
	}
	p.R = r

	// Step 2: auxiliary vectors — the stage extended {d_l^p} to a
	// linearly independent set of size β from the remaining projected
	// deps.
	if !opt.NoAux {
		p.Aux = s.aux[gi]
	}

	// Steps 3–5: region growing. Step 6, pulling each group back to its
	// block, is BlockOf.
	if err := p.growGroups(ctx, opt.SeedBase, s.lo, s.hi, s.step[gi], t); err != nil {
		return nil, err
	}
	return p, nil
}

// singletonGroups makes every projected point its own group: group i
// holds point i, is based at it, and has no lattice coordinates. Its
// table comes from t.
func (p *Partitioning) singletonGroups(t *Tables) {
	np := p.PS.NumPoints()
	tab := t.int32s(4*np + 1)
	p.GroupOf, p.members = tab[:np:np], tab[np:2*np:2*np]
	p.start, p.comp = tab[2*np:3*np+1:3*np+1], tab[3*np+1:]
	for i := range np {
		p.GroupOf[i], p.members[i], p.start[i+1] = int32(i), int32(i), int32(i+1)
	}
}

// growCheckEvery is how often (in BFS queue pops) growGroups polls the
// context, amortizing the cancellation check over the sweep.
const growCheckEvery = 1024

// grower holds the region growing's state on flat storage. Every
// projected point joins exactly one group, so groupOf and members are
// |V^p| long, and members fills in creation order, filled entries so far.
// Group g's record is rec[g*rw : (g+1)*rw]: its base (n entries), its
// lattice coordinates (one per axis), the end of its run in members, and
// its component. lo and hi bound the projected points. On a dense lattice
// index, step is the table stride of one d_l^p step.
type grower struct {
	ps      *project.Structure
	r       int64
	dl      vec.Int
	n, rw   int
	lo, hi  []int64
	dense   bool
	step    int64
	groupOf []int32
	members []int32
	filled  int
	rec     []int64
	// cand is scratch for one probed lattice position.
	cand vec.Int
}

// groups returns the number of groups created so far.
func (g *grower) groups() int { return len(g.rec) / g.rw }

// base returns group id's base in rec.
func (g *grower) base(id int) []int64 { return g.rec[id*g.rw : id*g.rw+g.n] }

// span returns the range [kLo, kHi) of the k in [0, r) whose position
// base + k·d_l^p lies inside the bounding box [lo, hi] of the projected
// points; kLo >= kHi when there is none. No projected point lies outside
// the box, so the clip is exact, and it costs O(dims) however large r is.
// The distances are taken in uint64, where they are exact for any base.
func (g *grower) span(base []int64) (kLo, kHi int64) {
	kHi = g.r
	for j, d := range g.dl {
		b, lo, hi := base[j], g.lo[j], g.hi[j]
		// gap is how far base lies before the box along d, room how far
		// the box reaches past base along d, both in coordinate units.
		var step, gap, room uint64
		switch {
		case d == 0:
			if b < lo || b > hi {
				return 0, 0
			}
			continue
		case d > 0:
			if b > hi {
				return 0, 0
			}
			step, room = uint64(d), uint64(hi)-uint64(b)
			if b < lo {
				gap = uint64(lo) - uint64(b)
			}
		default:
			if b < lo {
				return 0, 0
			}
			step, room = -uint64(d), uint64(b)-uint64(lo)
			if b > hi {
				gap = uint64(b) - uint64(hi)
			}
		}
		first, last := gap/step, room/step
		if gap%step != 0 {
			first++
		}
		if first > last || first >= uint64(kHi) {
			return 0, 0
		}
		kLo = max(kLo, int64(first))
		if last < uint64(kHi-1) {
			kHi = int64(last) + 1
		}
	}
	return kLo, kHi
}

// tryCreate claims the free projected points at base + k·d_l^p for k in
// [0, r) as a new group of component comp with the given lattice
// coordinates, and reports whether it made one. Only the k that span
// keeps inside the bounding box are probed; on a dense lattice index the
// probes walk the table by the stride of d_l^p, and each hit is compared
// with its position, since a base (SeedBase) may lie off the hyperplane
// and share its slots with other points. Points already owned by
// another group are left alone; the reference grower's test asserts that
// a new group never finds one (no partial overlap) on its input grid.
//
// No visited set is needed: a position whose probe created nothing had no
// free point, and one that created a group claimed every free point, so
// probing a position again can never create a group, and ownership only
// grows. A second probe of a grown position returns at its first owned
// point, whose group has this base; other repeats re-scan their positions
// and find nothing free.
func (g *grower) tryCreate(base []int64, comp int, coords []int64) bool {
	ps, cand := g.ps, g.cand
	// The group's members go to members[g.filled:end], committed only
	// when it is made.
	end := g.filled
	kLo, kHi := g.span(base)
	// position sets cand to base + k·d_l^p. The sum lies in the box, so
	// it is exact even where the product k·d_l^p wraps.
	position := func(k int64) {
		for j := range cand {
			cand[j] = base[j] + k*g.dl[j]
		}
	}
	var slot int64
	if g.dense && kLo < kHi {
		position(kLo)
		slot, _ = ps.LatticeSlot(cand)
	}
	for k := kLo; k < kHi; k, slot = k+1, slot+g.step {
		idx := -1
		if g.dense {
			if idx = ps.PointAtSlot(slot); idx < 0 {
				continue
			}
		}
		position(k)
		if !g.dense {
			idx = ps.IndexOf(cand)
		} else if !ps.Point(idx).Equal(cand) {
			idx = -1
		}
		if idx < 0 {
			continue
		}
		if o := g.groupOf[idx]; o >= 0 {
			if vec.Int(g.base(int(o))).Equal(base) {
				return false
			}
			continue
		}
		g.members[end] = int32(idx)
		end++
	}
	if end == g.filled {
		return false
	}
	id := int32(g.groups())
	for _, m := range g.members[g.filled:end] {
		g.groupOf[m] = id
	}
	g.filled = end
	g.rec = append(append(append(g.rec, base...), coords...), int64(end), int64(comp))
	return true
}

// growGroups implements Steps 3–5: BFS region growing from seed groups.
// seedBase, when non-nil, pins the base vertex of the very first group.
// It polls ctx every growCheckEvery expansions and returns its error on
// cancellation, and it refuses a group size whose probes would leave
// int64 (see checkReach). lo and hi bound the projected points, and step
// is the lattice table stride of d_l^p (see Stage).
//
// Groups are created in BFS order and every created group is queued, so
// the queue of a component is the run of groups created since its seed:
// a pop is one step of an index. The groups are grown on flat scratch
// (see grower) and copied at the end into tables from t (exactly sized
// ones when t is nil), so the number of allocations does not grow with
// the number of groups or probes unless more groups than the scratch's
// estimate sit on the boundary. The scratch comes from scratchFree, so
// a planner that has grown it once allocates none per plan. The tables
// keep each group's coordinates as int32s and each component's seed,
// from which Base derives the group's base; none of them references the
// scratch.
func (p *Partitioning) growGroups(ctx context.Context, seedBase vec.Int, lo, hi []int64, step int64, t *Tables) error {
	ps := p.PS
	np, n, axes := ps.NumPoints(), len(ps.Pi), 1+len(p.Aux)
	w := n + axes
	if err := p.checkReach(lo, hi); err != nil {
		return err
	}
	tab := t.int32s(2 * np)
	p.GroupOf, p.members = tab[:np:np], tab[np:]
	for i := range p.GroupOf {
		p.GroupOf[i] = -1
	}
	sc := getScratch()
	defer putScratch(sc)
	vecs := sc.vec(3*n + 2*axes)
	// About |V^p|/r groups fill the interior; the slack covers partial
	// groups on the boundary, and append grows the records past it.
	est := min(np, np/int(min(p.R, int64(np)))+16)
	g := &grower{
		ps: ps, r: p.R, dl: p.Grouping.Scaled, n: n, rw: w + 2, lo: lo, hi: hi,
		dense: ps.Dense(), step: step, groupOf: p.GroupOf, members: p.members, rec: sc.records(est * (w + 2)), cand: vecs[:n:n],
	}
	// Keep the records' append growth for the next run.
	defer func() { sc.rec = g.rec[:0] }()
	// base and coords hold the group being expanded, next and nextCoords
	// the neighbour being probed.
	base, next := vec.Int(vecs[n:2*n:2*n]), vec.Int(vecs[2*n:3*n:3*n])
	coords, nextCoords := vecs[3*n:3*n+axes:3*n+axes], vecs[3*n+axes:]

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
			copy(next, ps.Point(cursor))
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
			rec := g.rec[head*g.rw : head*g.rw+w]
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

	// Copy the records into tables from t: the run ends into
	// start, the components into comp, the coordinates into coords, and
	// the base of each component's first group, which region growing
	// created at coordinates zero, into seeds. Components are created in
	// order, each one's groups in one run, so the last group's is the
	// highest; a component whose seed created no group keeps zeros.
	groups := g.groups()
	idx := t.int32s((2+axes)*groups + 1)
	p.start, p.comp = idx[:groups+1:groups+1], idx[groups+1:2*groups+1:2*groups+1]
	p.coords, p.axes = idx[2*groups+1:], axes
	p.seeds = t.int64s(int(g.rec[(groups-1)*g.rw+w+1]+1) * n)
	for id := range groups {
		r := g.rec[id*g.rw : (id+1)*g.rw]
		c := r[w+1]
		p.start[id+1], p.comp[id] = int32(r[w]), int32(c)
		for a, x := range r[n:w] {
			p.coords[id*axes+a] = int32(x)
		}
		if id == 0 || c != g.rec[(id-1)*g.rw+w+1] {
			copy(p.seeds[c*int64(n):], r[:n])
		}
	}
	return nil
}

// checkReach refuses a group size R whose region growing would leave
// int64. A created group's base lies within (R−1)·|d_l^p| of a projected
// point inside the box [lo, hi], so every probe from it lies within
// 2R·|d_l^p| + max_j |d_j^p| of the box. That reach, and so R·d_l^p,
// must fit in int64 on every axis.
func (p *Partitioning) checkReach(lo, hi []int64) error {
	for j, d := range p.Grouping.Scaled {
		var aux int64
		for _, a := range p.Aux {
			aux = max(aux, a.Scaled[j], -a.Scaled[j])
		}
		stride, ok := ints.CheckedMul(p.R, max(d, -d))
		reach := max(hi[j], -lo[j])
		for _, x := range [...]int64{aux, stride, stride} {
			if ok {
				reach, ok = ints.CheckedAdd(reach, x)
			}
		}
		if !ok {
			return fmt.Errorf("core: merge factor %d: stride R·d_l^p = %d·%v overflows int64: %w",
				p.MergeFactor, p.R, p.Grouping.Scaled, loop.ErrTooLarge)
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
	return int(p.GroupOf[p.PS.IndexOf(p.PS.ProjectionOf(x))])
}
