// Package project implements the projection phase of Algorithm 1 (§III).
//
// Given a computational structure Q = (V, D) and a time function Π, every
// index point x is projected onto the zero-hyperplane Π·x = 0:
//
//	x^p = x − (x·Π / Π·Π) Π          (Definition 3)
//
// The coordinates of x^p are rationals with denominators dividing
// s = Π·Π, so the package stores points and projected dependence vectors
// *scaled by s* as exact integer vectors: scaled(x) = s·x − (x·Π)·Π.
// Two index points lie on the same projection line (and may therefore share
// a processor, Lemma 1) iff their scaled projections are equal.
//
// For each projected dependence vector d^p the factor r_i — the smallest
// positive integer with r_i·d^p ∈ Z^n — is computed as
// lcm_k( s / gcd(s, scaled_k) ); the paper's group size r is the maximum
// r_i over D^p (Step 1 of Algorithm 1).
package project

import (
	"fmt"
	"sort"

	"repro/internal/hyperplane"
	"repro/internal/ints"
	"repro/internal/loop"
	"repro/internal/rat"
	"repro/internal/vec"
)

// Dep is a projected dependence vector.
type Dep struct {
	// Index is the position of the originating vector in the structure's D.
	Index int
	// Orig is the original dependence vector d.
	Orig vec.Int
	// Scaled is s·d^p, an exact integer vector.
	Scaled vec.Int
	// R is the smallest positive integer with R·d^p ∈ Z^n. R == 1 for
	// dependences parallel to Π (whose projection is the zero vector).
	R int64
}

// IsZero reports whether the dependence projects to the zero vector
// (i.e. d is parallel to Π).
func (d Dep) IsZero() bool { return d.Scaled.IsZero() }

// Rat returns the unscaled rational projected vector d^p.
func (d Dep) Rat(s int64) vec.Rat {
	out := make(vec.Rat, len(d.Scaled))
	for i, x := range d.Scaled {
		out[i] = rat.New(x, s)
	}
	return out
}

// Structure is the projected structure Q^p = (V^p, D^p) of Definition 5,
// in scaled-integer representation.
type Structure struct {
	// Orig is the projected computational structure.
	Orig *loop.Structure
	// Pi is the projection vector (time function).
	Pi vec.Int
	// S is the scale factor Π·Π.
	S int64
	// Points holds the distinct scaled projected points, in lexicographic
	// order.
	Points []vec.Int
	// Fibers[p] lists, for projected point p, the indices into Orig.V of
	// the index points lying on its projection line, sorted by execution
	// time Π·x.
	Fibers [][]int
	// Deps holds one entry per original dependence vector.
	Deps []Dep

	// lattice is the dense O(dims) indexer over the scaled hyperplane
	// lattice; nil when the point set's bounding box is too large, in which
	// case the string-keyed map below is used instead.
	lattice *latticeIndex
	index   map[string]int
}

// Project computes the projected structure of st under pi. pi must be a
// valid time function for st's dependence set (Π·d > 0), since the
// partitioning phase relies on the hyperplane schedule.
func Project(st *loop.Structure, pi vec.Int) (*Structure, error) {
	if len(pi) != st.Dim() {
		return nil, fmt.Errorf("project: Π arity %d, structure dim %d", len(pi), st.Dim())
	}
	if err := hyperplane.Check(pi, st.D); err != nil {
		return nil, err
	}
	ps := &Structure{Orig: st, Pi: pi.Clone(), S: pi.Dot(pi)}
	if !ps.bucketFibers() {
		ps.sortFibers()
		ps.buildIndex()
	}
	ps.projectDeps()
	return ps, nil
}

// bucketFibers builds Points, Fibers and the dense lattice index in time
// linear in |V|: one pass finds the bounding box of the scaled
// projections, a second gives every vertex its lattice table slot (the
// first vertex to reach a slot claims it for a new point), and only the
// |V^p| distinct points are sorted. Fibers are then filled in enumeration
// order and put in execution-time order, which costs O(len) per fiber
// because enumeration walks each projection line monotonically. It
// reports false, leaving ps untouched, when V is empty or the box exceeds
// latticeDenseCap.
func (ps *Structure) bucketFibers() bool {
	V, pi, s := ps.Orig.V, ps.Pi, ps.S
	n, nV := len(pi), len(V)
	if nV == 0 {
		return false
	}
	times := make([]int64, nV)
	lo := make([]int64, n)
	hi := make([]int64, n)
	for vi, x := range V {
		t := x.Dot(pi)
		times[vi] = t
		for j, xj := range x {
			y := s*xj - pi[j]*t
			if vi == 0 || y < lo[j] {
				lo[j] = y
			}
			if vi == 0 || y > hi[j] {
				hi[j] = y
			}
		}
	}
	li := newLatticeIndex(pi, lo, hi)
	if li == nil {
		return false
	}

	// Slot pass: ids[vi] is the vertex's point in first-seen order, reps
	// the first vertex of each point, slots its table slot.
	ids := make([]int32, nV)
	var reps []int
	var slots []int64
	var counts []int
	for vi, x := range V {
		t := times[vi]
		var off int64
		for j, xj := range x {
			if j != li.drop {
				off += (s*xj - pi[j]*t - lo[j]) * li.strides[j]
			}
		}
		id := li.table[off] - 1
		if id < 0 {
			id = int32(len(reps))
			li.table[off] = id + 1
			reps = append(reps, vi)
			slots = append(slots, off)
			counts = append(counts, 0)
		}
		ids[vi] = id
		counts[id]++
	}

	// Sort the distinct points and renumber the table by rank.
	np := len(reps)
	pts := make([]int64, np*n)
	for id, vi := range reps {
		t := times[vi]
		for j, xj := range V[vi] {
			pts[id*n+j] = s*xj - pi[j]*t
		}
	}
	order := make([]int, np)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra := pts[order[a]*n : order[a]*n+n]
		rb := pts[order[b]*n : order[b]*n+n]
		for j := range ra {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return false
	})
	rank := make([]int32, np)
	ps.Points = make([]vec.Int, np)
	for r, id := range order {
		rank[id] = int32(r)
		li.table[slots[id]] = int32(r) + 1
		ps.Points[r] = pts[id*n : id*n+n : id*n+n]
	}

	// Counting pass: fibers in enumeration order, then by time.
	start := make([]int, np+1)
	for id, c := range counts {
		start[rank[id]+1] = c
	}
	for r := 0; r < np; r++ {
		start[r+1] += start[r]
	}
	flat := make([]int, nV)
	next := append([]int(nil), start[:np]...)
	for vi, id := range ids {
		r := rank[id]
		flat[next[r]] = vi
		next[r]++
	}
	ps.Fibers = make([][]int, np)
	for r := range ps.Fibers {
		fib := flat[start[r]:start[r+1]:start[r+1]]
		sortByTime(fib, times)
		ps.Fibers[r] = fib
	}
	ps.lattice = li
	return true
}

// sortByTime orders a fiber by execution time. The vertices of one
// projection line have distinct times, and a lexicographic enumeration
// meets them in monotone time order, so reversing a descending fiber
// leaves the insertion sort a single linear pass.
func sortByTime(fib []int, times []int64) {
	if len(fib) > 1 && times[fib[0]] > times[fib[len(fib)-1]] {
		for i, j := 0, len(fib)-1; i < j; i, j = i+1, j-1 {
			fib[i], fib[j] = fib[j], fib[i]
		}
	}
	for i := 1; i < len(fib); i++ {
		v := fib[i]
		j := i
		for ; j > 0 && times[fib[j-1]] > times[v]; j-- {
			fib[j] = fib[j-1]
		}
		fib[j] = v
	}
}

// sortFibers is the general path behind bucketFibers: it projects every
// vertex into one flat buffer and sorts vertex ids by (scaled projection,
// execution time), so equal projections become adjacent runs. It costs
// O(V·n·log V) and needs no table, so it serves any bounding box.
func (ps *Structure) sortFibers() {
	V, pi, s := ps.Orig.V, ps.Pi, ps.S
	n := len(pi)
	nV := len(V)
	buf := make([]int64, nV*n)
	times := make([]int64, nV)
	order := make([]int, nV)
	for vi, x := range V {
		t := x.Dot(pi)
		times[vi] = t
		row := buf[vi*n : vi*n+n]
		for j, xj := range x {
			row[j] = s*xj - pi[j]*t
		}
		order[vi] = vi
	}
	sort.Slice(order, func(a, b int) bool {
		ra := buf[order[a]*n : order[a]*n+n]
		rb := buf[order[b]*n : order[b]*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return times[order[a]] < times[order[b]]
	})
	sameRow := func(a, b int) bool {
		ra := buf[a*n : a*n+n]
		rb := buf[b*n : b*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < nV; {
		vi := order[i]
		// Copy the unique projection out of buf so the big per-vertex
		// buffer is not pinned by the (much smaller) point set.
		ps.Points = append(ps.Points, vec.Int(buf[vi*n:vi*n+n]).Clone())
		j := i
		for j < nV && sameRow(vi, order[j]) {
			j++
		}
		fib := make([]int, j-i)
		copy(fib, order[i:j])
		ps.Fibers = append(ps.Fibers, fib)
		i = j
	}
}

// projectDeps projects the dependence vectors and computes their r
// factors.
func (ps *Structure) projectDeps() {
	for di, d := range ps.Orig.D {
		sd := ScalePoint(d, ps.Pi, ps.S)
		ps.Deps = append(ps.Deps, Dep{Index: di, Orig: d.Clone(), Scaled: sd, R: rFactor(sd, ps.S)})
	}
}

// latticeDenseCap bounds the dense lattice table size (entries). Projected
// points lie on the (n−1)-dimensional hyperplane Π·y = 0, so eliminating
// one coordinate keeps the table near |V^p| for the paper's nests; sets
// whose reduced bounding box still exceeds the cap fall back to the map.
var latticeDenseCap = int64(1) << 22

// latticeIndex indexes scaled projected points in O(dims) arithmetic.
// Every scaled projection satisfies Π·y = 0 (so do the scaled projected
// dependence vectors, hence every lattice position Algorithm 1 probes), so
// one coordinate with Π_k ≠ 0 is redundant and the table covers only the
// bounding box of the remaining coordinates. A lookup bounds-checks the
// retained coordinates, reads the table slot, and verifies the stored point
// — the verification also rejects off-hyperplane queries.
type latticeIndex struct {
	drop    int
	lo, hi  []int64 // per original dimension; the dropped entry is unused
	strides []int64
	table   []int32 // point index + 1; 0 marks an empty slot
}

// newLatticeIndex lays out an empty table over the box [lo, hi], or
// returns nil when the reduced box exceeds latticeDenseCap. It keeps lo
// and hi.
func newLatticeIndex(pi, lo, hi []int64) *latticeIndex {
	n := len(pi)
	// Drop the widest dimension with Π_k ≠ 0 (Π is nonzero, so one
	// always exists); the hyperplane equation makes it redundant.
	drop := -1
	for j := 0; j < n; j++ {
		if pi[j] == 0 {
			continue
		}
		if drop < 0 || hi[j]-lo[j] > hi[drop]-lo[drop] {
			drop = j
		}
	}
	if drop < 0 {
		return nil
	}
	volume := int64(1)
	for j := 0; j < n; j++ {
		if j == drop {
			continue
		}
		// Each factor is checked before the product, so the volume
		// cannot overflow on its way past the cap.
		extent := hi[j] - lo[j] + 1
		if extent <= 0 || extent > latticeDenseCap {
			return nil
		}
		if volume *= extent; volume > latticeDenseCap {
			return nil
		}
	}
	li := &latticeIndex{drop: drop, lo: lo, hi: hi, strides: make([]int64, n)}
	stride := int64(1)
	for j := n - 1; j >= 0; j-- {
		if j == drop {
			continue
		}
		li.strides[j] = stride
		stride *= hi[j] - lo[j] + 1
	}
	li.table = make([]int32, volume)
	return li
}

// buildIndex constructs the lattice index over Points, falling back to the
// string-keyed map when the reduced bounding box exceeds latticeDenseCap.
func (ps *Structure) buildIndex() {
	n := len(ps.Pi)
	if len(ps.Points) > 0 {
		lo := make([]int64, n)
		hi := make([]int64, n)
		copy(lo, ps.Points[0])
		copy(hi, ps.Points[0])
		for _, p := range ps.Points[1:] {
			for j, x := range p {
				if x < lo[j] {
					lo[j] = x
				}
				if x > hi[j] {
					hi[j] = x
				}
			}
		}
		if li := newLatticeIndex(ps.Pi, lo, hi); li != nil {
			for i, p := range ps.Points {
				li.table[li.offset(p)] = int32(i) + 1
			}
			ps.lattice = li
			return
		}
	}
	ps.index = make(map[string]int, len(ps.Points))
	for i, p := range ps.Points {
		ps.index[p.Key()] = i
	}
}

// offset computes the table slot of an in-box point.
func (li *latticeIndex) offset(p vec.Int) int64 {
	var off int64
	for j, x := range p {
		if j == li.drop {
			continue
		}
		off += (x - li.lo[j]) * li.strides[j]
	}
	return off
}

// lookup returns the index of the scaled point, or -1.
func (li *latticeIndex) lookup(p vec.Int, points []vec.Int) int {
	var off int64
	for j, x := range p {
		if j == li.drop {
			continue
		}
		if x < li.lo[j] || x > li.hi[j] {
			return -1
		}
		off += (x - li.lo[j]) * li.strides[j]
	}
	t := li.table[off]
	if t == 0 {
		return -1
	}
	i := int(t) - 1
	if !points[i].Equal(p) {
		return -1
	}
	return i
}

// ScalePoint returns s·x − (x·Π)·Π, the projection of x scaled by s = Π·Π.
func ScalePoint(x, pi vec.Int, s int64) vec.Int {
	t := x.Dot(pi)
	return x.Scale(s).Sub(pi.Scale(t))
}

// rFactor computes the smallest positive r with r·(scaled/s) ∈ Z^n.
func rFactor(scaled vec.Int, s int64) int64 {
	r := int64(1)
	for _, c := range scaled {
		g := ints.GCD(s, c)
		r = ints.LCM(r, s/g)
	}
	return r
}

// IndexOf returns the position of a scaled projected point, or -1.
func (ps *Structure) IndexOf(scaled vec.Int) int {
	if ps.lattice != nil {
		return ps.lattice.lookup(scaled, ps.Points)
	}
	i, ok := ps.index[scaled.Key()]
	if !ok {
		return -1
	}
	return i
}

// Dense reports whether lookups run on the dense lattice table rather than
// the string-keyed fallback map.
func (ps *Structure) Dense() bool { return ps.lattice != nil }

// HasPoint reports whether the scaled point belongs to V^p.
func (ps *Structure) HasPoint(scaled vec.Int) bool {
	return ps.IndexOf(scaled) >= 0
}

// ProjectionOf returns the scaled projected point of an index point.
func (ps *Structure) ProjectionOf(x vec.Int) vec.Int {
	return ScalePoint(x, ps.Pi, ps.S)
}

// RatPoint returns the unscaled rational coordinates of projected point i
// (for display and for cross-checks against the paper's figures).
func (ps *Structure) RatPoint(i int) vec.Rat {
	out := make(vec.Rat, len(ps.Points[i]))
	for k, x := range ps.Points[i] {
		out[k] = rat.New(x, ps.S)
	}
	return out
}

// GroupSizeR returns the paper's group size r = max_i r_i over the
// projected dependence vectors (1 when there are no dependences).
func (ps *Structure) GroupSizeR() int64 {
	r := int64(1)
	for _, d := range ps.Deps {
		if d.R > r {
			r = d.R
		}
	}
	return r
}

// NonzeroDeps returns the projected dependences with nonzero projection,
// deduplicated by scaled vector (two original dependences may project to
// the same d^p).
func (ps *Structure) NonzeroDeps() []Dep {
	seen := map[string]bool{}
	var out []Dep
	for _, d := range ps.Deps {
		if d.IsZero() {
			continue
		}
		k := d.Scaled.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// FiberPoints returns the index points on the projection line of projected
// point i, in execution-time order.
func (ps *Structure) FiberPoints(i int) []vec.Int {
	out := make([]vec.Int, len(ps.Fibers[i]))
	for j, vi := range ps.Fibers[i] {
		out[j] = ps.Orig.V[vi]
	}
	return out
}
