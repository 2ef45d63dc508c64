package core

import (
	"fmt"

	"repro/internal/vec"
)

// CheckInvariants verifies the structural guarantees the paper proves about
// Algorithm 1's output. It returns the first violation found, or nil.
//
//   - Completeness/disjointness: every index point belongs to exactly one
//     block (Definition 6 partitions V).
//   - Group geometry: every member of a group sits at Base + k·d_l^p for
//     a slot k in [0, r), and a group lists its members in slot order.
//   - Lemma 1 / Theorem 1: no two index points of one block share an
//     execution step, so blocks respect the schedule of Π.
//   - Group size: no group exceeds r members.
func CheckInvariants(p *Partitioning) error {
	ps := p.PS
	np, groups, n := ps.NumPoints(), p.NumBlocks(), len(ps.Pi)
	if len(p.GroupOf) != np || len(p.members) != np || len(p.start) != groups+1 || p.start[0] != 0 ||
		int(p.start[groups]) != np || len(p.coords) != groups*p.axes {
		return fmt.Errorf("group tables do not cover %d projected points in %d groups", np, groups)
	}
	if p.Grouping != nil && (p.axes != 1+len(p.Aux) || len(p.seeds)%n != 0) {
		return fmt.Errorf("group tables hold %d axes and %d seed entries for %d auxiliary vectors in %d dimensions",
			p.axes, len(p.seeds), len(p.Aux), n)
	}

	// Every projected point grouped exactly once. Each group's base is
	// derived once, into base. Both are pooled scratch, cleared on take.
	sc := getScratch()
	defer putScratch(sc)
	seen, base := sc.int32s(np), vec.Int(sc.vec(n))
	for g := range groups {
		s, e := p.start[g], p.start[g+1]
		if e < s || int(e) > np {
			return fmt.Errorf("group %d has members [%d, %d) of %d", g, s, e, np)
		}
		if int64(e-s) > p.R {
			return fmt.Errorf("group %d has %d members, exceeds r=%d", g, e-s, p.R)
		}
		prev := int64(-1)
		if p.Grouping != nil {
			if c := p.comp[g]; c < 0 || int(c) >= len(p.seeds)/n {
				return fmt.Errorf("group %d is in component %d of %d seeded", g, c, len(p.seeds)/n)
			}
			p.baseInto(base, g)
		}
		for _, m := range p.members[s:e] {
			if m < 0 || int(m) >= np {
				return fmt.Errorf("group %d lists projected point %d of %d", g, m, np)
			}
			seen[m]++
			if p.GroupOf[m] != int32(g) {
				return fmt.Errorf("GroupOf[%d] = %d, expected %d", m, p.GroupOf[m], g)
			}
			if p.Grouping == nil {
				continue
			}
			k, ok := p.slot(base, int(m))
			if !ok || k < 0 || k >= p.R {
				return fmt.Errorf("group %d member %d at %v is off its group line at slots [0, %d) (base %v)",
					g, m, ps.Point(int(m)), p.R, base)
			}
			if k <= prev {
				return fmt.Errorf("group %d member %d at slot %d follows slot %d", g, m, k, prev)
			}
			prev = k
		}
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("projected point %d grouped %d times", i, c)
		}
	}

	// Lemma 1 / Theorem 1: all index points of a block execute at distinct
	// steps. A coarsened partitioning (MergeFactor > 1) deliberately
	// relaxes the distinct-step property, so it is checked only at the
	// paper's exact grouping.
	if p.MergeFactor <= 1 {
		if x, g := p.firstStepClash(); x != nil {
			return fmt.Errorf("block %d executes two index points at step %d (Lemma 1 violated)", g, ps.Pi.Dot(x))
		}
	}
	return nil
}

// firstStepClash finds the index point a walk of V in lexicographic order
// would first see sharing an execution step with an earlier point of its
// block, and returns it with its block, or nil. It works on each block's
// fibers, never on V: fiber f runs at the times T0 + t·w, t in [0, Len),
// with the one stride w = Π·u for every line, so two fibers of a block
// share steps only when their first times are congruent mod w and their
// time intervals overlap. For such a pair, the two points at one shared
// step differ by a fixed vector, so the lexicographically larger of them
// comes from the same fiber at every shared step and moves by u from step
// to step: it is least at the first shared step when u is
// lexicographically positive and at the last one otherwise. The walk's
// first clash at a step is the second point of the block there, which is
// the least over pairs of the larger point, so the least over all pairs
// is the answer. Only a clash reads the vertex set, for the points' first
// coordinates, so a compact structure stays compact when Lemma 1 holds.
func (p *Partitioning) firstStepClash() (vec.Int, int) {
	ps := p.PS
	u, w := ps.U, ps.Stride()
	uPos := u.LexPositive()
	var best vec.Int
	bestG := -1
	for g := range p.NumBlocks() {
		members := p.Members(g)
		for i, a := range members {
			fa := ps.Fibers[a]
			for _, b := range members[i+1:] {
				fb := ps.Fibers[b]
				if (fa.T0-fb.T0)%w != 0 {
					continue
				}
				first := max(fa.T0, fb.T0)
				last := min(fa.T0+int64(fa.Len-1)*w, fb.T0+int64(fb.Len-1)*w)
				if first > last {
					continue
				}
				// The shared step where the larger point is least.
				at := first
				if !uPos {
					at = last
				}
				V := ps.Orig.Vertices()
				xa := V[fa.X0].AddScaled((at-fa.T0)/w, u)
				xb := V[fb.X0].AddScaled((at-fb.T0)/w, u)
				x := xa
				if xb.Cmp(xa) > 0 {
					x = xb
				}
				if best == nil || x.Cmp(best) < 0 {
					best, bestG = x, g
				}
			}
		}
	}
	return best, bestG
}

// Theorem2Bound returns 2m − β for the partitioning, the paper's bound on
// the number of groups any group must send data to.
func Theorem2Bound(p *Partitioning) int {
	m := len(p.PS.Orig.D)
	return 2*m - p.Beta
}

// CheckTheorem2 verifies that the TIG's max out-degree respects the
// Theorem 2 bound.
func CheckTheorem2(p *Partitioning, t *TIG) error {
	bound := Theorem2Bound(p)
	if d := t.MaxOutDegree(); d > bound {
		return fmt.Errorf("max out-degree %d exceeds Theorem 2 bound 2m-β = %d", d, bound)
	}
	return nil
}
