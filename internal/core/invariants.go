package core

import (
	"fmt"
	"sort"

	"repro/internal/vec"
)

// CheckInvariants verifies the structural guarantees the paper proves about
// Algorithm 1's output. It returns the first violation found, or nil.
//
//   - Completeness/disjointness: every index point belongs to exactly one
//     block (Definition 6 partitions V).
//   - Group geometry: member k of a group sits at Base + slot_k·d_l^p.
//   - Lemma 1 / Theorem 1: no two index points of one block share an
//     execution step, so blocks respect the schedule of Π.
//   - Group size: no group exceeds r members.
func CheckInvariants(p *Partitioning) error {
	ps := p.PS

	// Every projected point grouped exactly once.
	seen := make([]int, len(ps.Points))
	for gi, g := range p.Groups {
		if g.ID != gi {
			return fmt.Errorf("group %d has ID %d", gi, g.ID)
		}
		if int64(len(g.Members)) > p.R {
			return fmt.Errorf("group %d has %d members, exceeds r=%d", gi, len(g.Members), p.R)
		}
		if len(g.Members) != len(g.Slot) {
			return fmt.Errorf("group %d: members/slots length mismatch", gi)
		}
		for mi, m := range g.Members {
			seen[m]++
			if p.GroupOf[m] != gi {
				return fmt.Errorf("GroupOf[%d] = %d, expected %d", m, p.GroupOf[m], gi)
			}
			if p.Grouping != nil && !onGroupLine(ps.Points[m], g.Base, int64(g.Slot[mi]), p.Grouping.Scaled) {
				want := g.Base.AddScaled(int64(g.Slot[mi]), p.Grouping.Scaled)
				return fmt.Errorf("group %d member %d at %v, want %v (base %v slot %d)",
					gi, m, ps.Points[m], want, g.Base, g.Slot[mi])
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("projected point %d grouped %d times", i, c)
		}
	}

	// Lemma 1 / Theorem 1: all index points of a block execute at distinct
	// steps. A coarsened partitioning (MergeFactor > 1) deliberately
	// relaxes the distinct-step property, so only block validity is
	// checked then. Either way the error names the first vertex, in V
	// order, at which a walk of V would see the violation.
	V := ps.Orig.V
	bad := len(V)
	for vi := range V {
		if g := p.BlockOf[vi]; g < 0 || g >= len(p.Groups) {
			bad = vi
			break
		}
	}
	if p.MergeFactor <= 1 {
		if vi, t := p.firstStepClash(bad); vi >= 0 {
			return fmt.Errorf("block %d executes two index points at step %d (Lemma 1 violated)", p.BlockOf[vi], t)
		}
	}
	if bad < len(V) {
		return fmt.Errorf("vertex %v has invalid block %d", V[bad], p.BlockOf[bad])
	}
	return nil
}

// onGroupLine reports whether pt == base + slot·dl, without allocating.
func onGroupLine(pt, base vec.Int, slot int64, dl vec.Int) bool {
	if len(pt) != len(base) || len(base) != len(dl) {
		return false
	}
	for k, x := range pt {
		if x != base[k]+slot*dl[k] {
			return false
		}
	}
	return true
}

// stampSlack is the step range, beyond four steps per vertex, that
// firstStepClash still covers with a stamp array.
var stampSlack int64 = 1024

// firstStepClash returns the smallest vertex index below limit whose block
// already holds a smaller-indexed vertex at the same execution step, with
// that step, or -1. It walks each block's vertices in index order against
// a stamp array over the step range (stamp = block + 1, so it never needs
// clearing); a step range far wider than V sorts each block's steps
// instead.
func (p *Partitioning) firstStepClash(limit int) (int, int64) {
	if limit == 0 {
		return -1, 0
	}
	V, pi := p.PS.Orig.V, p.PS.Pi
	times := make([]int64, limit)
	tmin, tmax := pi.Dot(V[0]), pi.Dot(V[0])
	for vi := range times {
		t := pi.Dot(V[vi])
		times[vi] = t
		tmin, tmax = min(tmin, t), max(tmax, t)
	}
	start, verts := p.blockVertices(limit)
	clash := -1
	note := func(vi int32) {
		if clash < 0 || int(vi) < clash {
			clash = int(vi)
		}
	}
	if span := tmax - tmin; span >= 0 && span < 4*int64(limit)+stampSlack {
		stamp := make([]int32, span+1)
		for g := range p.Groups {
			for _, vi := range verts[start[g]:start[g+1]] {
				k := times[vi] - tmin
				if stamp[k] == int32(g+1) {
					note(vi)
					break
				}
				stamp[k] = int32(g + 1)
			}
		}
	} else {
		for g := range p.Groups {
			// Sorted by (step, index), the second vertex of each run of
			// equal steps is its block's clash at that step.
			b := verts[start[g]:start[g+1]]
			sort.Slice(b, func(i, j int) bool {
				if ti, tj := times[b[i]], times[b[j]]; ti != tj {
					return ti < tj
				}
				return b[i] < b[j]
			})
			for i := 1; i < len(b); i++ {
				if times[b[i]] == times[b[i-1]] {
					note(b[i])
				}
			}
		}
	}
	if clash < 0 {
		return -1, 0
	}
	return clash, times[clash]
}

// blockVertices buckets the vertex indices below limit by block with a
// stable counting sort: block g holds verts[start[g]:start[g+1]], in
// increasing index order. BlockOf must be a valid block below limit.
func (p *Partitioning) blockVertices(limit int) (start []int, verts []int32) {
	start = make([]int, len(p.Groups)+1)
	for _, g := range p.BlockOf[:limit] {
		start[g+1]++
	}
	for g := range p.Groups {
		start[g+1] += start[g]
	}
	next := append([]int(nil), start[:len(p.Groups)]...)
	verts = make([]int32, limit)
	for vi, g := range p.BlockOf[:limit] {
		verts[next[g]] = int32(vi)
		next[g]++
	}
	return start, verts
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
