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
	"math"
	"slices"

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

// Fiber is the run of index points on one projection line, in execution
// order: x0 + t·u for t in [0, Len), where x0 = Orig.Point(X0) is
// the line's first point and u = Π/gcd(Π) the line's primitive
// direction. Point t runs at time T0 + t·Π·u with T0 = Π·x0. X0 and Len
// are int32: Project refuses a structure of more index points.
type Fiber struct {
	T0      int64
	X0, Len int32
}

// LineArc is one entry of the line graph over Q^p: the arcs of one
// dependence d that leave one projection line. Projection is linear, so
// they all land on the line of x^p + d^p.
type LineArc struct {
	// To is the projected point of the target line, or -1 when no index
	// point projects to x^p + d^p (then Arcs is 0). A dependence parallel
	// to Π stays on its own line.
	To int32
	// Arcs is the number of dependence arcs from the line to To, at most
	// the line's length.
	Arcs int32
}

// Structure is the projected structure Q^p = (V^p, D^p) of Definition 5,
// in scaled-integer representation. Its per-point tables are flat and
// pointer-free: the points' coordinates are one column of n entries per
// point, read through Point, and the line graph one (To, Arcs) pair of
// int32s per line and dependence. Project refuses a structure whose
// point count or line length does not fit an int32.
type Structure struct {
	// Orig is the projected computational structure.
	Orig *loop.Structure
	// Pi is the projection vector (time function).
	Pi vec.Int
	// S is the scale factor Π·Π.
	S int64
	// U is Π/gcd(Π), the primitive direction of every projection line:
	// two index points share a line exactly when they differ by a
	// multiple of U.
	U vec.Int
	// Points has one entry per projected point and holds no data:
	// len(Points) is |V^p|, as NumPoints returns, for callers that count
	// the points by it. The coordinates are read through Point.
	Points []struct{}
	// coords holds the distinct scaled projected points in lexicographic
	// order, n = len(Pi) entries per point.
	coords []int64
	// Fibers[p] is the projection line of projected point p.
	Fibers []Fiber
	// Deps holds one entry per original dependence vector.
	Deps []Dep
	// Arcs is the line graph: Arcs[p·m + i] is where dependence Deps[i]
	// leads from projected point p, m = len(Deps). See Line.
	Arcs []LineArc

	// lattice is the dense O(dims) indexer over the scaled hyperplane
	// lattice; nil when the point set's bounding box is too large, in which
	// case the string-keyed map below is used instead.
	lattice *latticeIndex
	index   map[string]int
}

// Project computes the projected structure of st under pi. pi must be a
// valid time function for st's dependence set (Π·d > 0), since the
// partitioning phase relies on the hyperplane schedule. A Π under which
// S = Π·Π, a scaled projection or a scaled dependence would leave int64,
// and a structure of more index points than an int32 counts, are refused
// with an error wrapping loop.ErrTooLarge.
func Project(st *loop.Structure, pi vec.Int) (*Structure, error) {
	return project(st, pi, math.MaxInt32)
}

// project is Project for structures of at most maxPoints index points.
// Every projection line is a run of index points, so under that bound
// the line count, each line's length and each line's first index fit
// the int32 tables; it is checked before any table is built.
func project(st *loop.Structure, pi vec.Int, maxPoints int) (*Structure, error) {
	if len(pi) != st.Dim() {
		return nil, fmt.Errorf("project: Π arity %d, structure dim %d", len(pi), st.Dim())
	}
	if st.Len() > maxPoints {
		return nil, fmt.Errorf("project: %d index points exceed the int32 point tables: %w", st.Len(), loop.ErrTooLarge)
	}
	s, ok := pi.CheckedDot(pi)
	if !ok {
		return nil, fmt.Errorf("project: Π%v: Π·Π overflows int64: %w", pi, loop.ErrTooLarge)
	}
	if err := hyperplane.Check(pi, st.D); err != nil {
		return nil, err
	}
	ps := &Structure{Orig: st, Pi: pi.Clone(), S: s}
	g := pi.ContentGCD()
	ps.U = make(vec.Int, len(pi))
	for k, a := range pi {
		ps.U[k] = a / g
	}
	buf, err := ps.traceLines()
	if err != nil {
		return nil, err
	}
	ps.sortLines(buf)
	ps.projectDeps()
	ps.buildLineGraph()
	return ps, nil
}

// NumPoints returns |V^p|, the number of projected points.
func (ps *Structure) NumPoints() int { return len(ps.Points) }

// Point returns the scaled coordinates of projected point i, a window
// onto the structure's coordinate column; callers must not modify it.
func (ps *Structure) Point(i int) vec.Int {
	n := len(ps.Pi)
	return ps.coords[i*n : i*n+n : i*n+n]
}

// scaledLimit bounds every scaled coordinate and time Project admits:
// half of int64, so that the difference of two of them (a bounding box
// extent, a span of times, a step of the line graph) fits as well.
const scaledLimit = math.MaxInt64 / 2

// scaleFits reports whether no scaled coordinate or time can leave
// scaledLimit under Π. reach[j] enters as max |x_j| over the index points
// and leaves with Σ_d |d_j| over the dependences added, a bound on |x_j|,
// |d_j| and |x_j + d_j|. Then |Π·x| and |Π·d| are at most
// T = Σ_k |Π_k|·reach_k, and a scaled coordinate s·x_j − (Π·x)·Π_j of a
// point, a dependence or their sum is at most s·reach_j + T·|Π_j|.
func (ps *Structure) scaleFits(reach []int64) bool {
	ok := true
	mulAdd := func(acc, a, b int64) int64 {
		p, okMul := ints.CheckedMul(a, b)
		sum, okAdd := ints.CheckedAdd(acc, p)
		ok = ok && okMul && okAdd && sum <= scaledLimit
		return sum
	}
	for _, d := range ps.Orig.D {
		ok = ok && !slices.Contains(d, math.MinInt64)
		for j, x := range d {
			reach[j] = mulAdd(reach[j], max(x, -x), 1)
		}
	}
	// Π·Π fits, so no Π_k is math.MinInt64 and its magnitude is exact.
	var t int64
	for k, a := range ps.Pi {
		t = mulAdd(t, max(a, -a), reach[k])
	}
	for j, a := range ps.Pi {
		mulAdd(mulAdd(0, ps.S, reach[j]), t, max(a, -a))
	}
	return ok
}

// Stride returns Π·u, the time between consecutive points of a line.
func (ps *Structure) Stride() int64 { return ps.Pi.Dot(ps.U) }

// Line returns the line graph's entries for projected point p, one per
// dependence in Deps order.
func (ps *Structure) Line(p int) []LineArc {
	m := len(ps.Deps)
	return ps.Arcs[p*m : p*m+m : p*m+m]
}

// buildLineGraph fills Arcs with one lattice lookup and one interval
// intersection per (line, dependence) pair. Both fibers step by u, one
// stride w = Π·u of time apart: point t of line p runs at T0 + t·w, and
// its arc of lag Π·d reaches time T0 + t·w + Π·d, which is point t + k of
// the target line q with k = (T0 + Π·d − T0')/w. The arcs are the t in
// [0, Len) whose t + k falls in [0, Len'), so the count is the overlap of
// two intervals.
func (ps *Structure) buildLineGraph() {
	m := len(ps.Deps)
	ps.Arcs = make([]LineArc, ps.NumPoints()*m)
	q := make(vec.Int, len(ps.Pi))
	w := ps.Stride()
	for i, d := range ps.Deps {
		lag, parallel := ps.Pi.Dot(d.Orig), d.IsZero()
		for p := range ps.NumPoints() {
			qi := p
			if !parallel {
				for k, xk := range ps.Point(p) {
					q[k] = xk + d.Scaled[k]
				}
				if qi = ps.IndexOf(q); qi < 0 {
					ps.Arcs[p*m+i] = LineArc{To: -1}
					continue
				}
			}
			// The arc count is at most f.Len, an int32.
			f, g := ps.Fibers[p], ps.Fibers[qi]
			k := (f.T0 + lag - g.T0) / w
			arcs := max(0, min(int64(f.Len), int64(g.Len)-k)-max(0, -k))
			ps.Arcs[p*m+i] = LineArc{To: int32(qi), Arcs: int32(arcs)}
		}
	}
}

// traceLines finds every projection line that meets the nest from the
// nest's bounds, without visiting its points, and fills Fibers in row
// order. A line's first point x0 is the one whose predecessor x0 − u lies
// outside V. Within an innermost row those points are the row minus the
// predecessor row (firstRuns), so each row yields at most two runs of
// first points; the line's length then comes from Nest.LineEnd. A first
// pass over the rows counts the lines so the second fills exactly sized
// arrays. The first pass also bounds the coordinates, so scaleFits can
// refuse a Π whose scaled projections would overflow before any is
// computed; a coordinate of math.MinInt64, which has no magnitude, is
// refused with them. It returns the lines' scaled projections, n per line
// in the same order. Each line is already in time order, since Π·u > 0.
func (ps *Structure) traceLines() ([]int64, error) {
	nest, pi, u, s := ps.Orig.Nest, ps.Pi, ps.U, ps.S
	n := len(pi)
	last := n - 1
	pred := make(vec.Int, n)
	// xmax[j] is max |x_j| over V (see scaleFits).
	xmax := make([]int64, n)
	fits := true
	grow := func(j int, x int64) {
		fits = fits && x != math.MinInt64
		xmax[j] = max(xmax[j], x, -x)
	}
	var np int64
	nest.ForEachRow(func(row vec.Int, hi int64) bool {
		for j, x := range row {
			grow(j, x)
		}
		grow(last, hi)
		a1, b1, a2, b2 := firstRuns(nest, row, hi, u, pred)
		np += max(0, b1-a1+1) + max(0, b2-a2+1)
		return true
	})
	if !fits || !ps.scaleFits(xmax) {
		return nil, fmt.Errorf("project: Π%v: scaled projections overflow int64: %w", ps.Pi, loop.ErrTooLarge)
	}
	lineEnd := nest.LineEnd(u)
	ps.Fibers = make([]Fiber, 0, np)
	buf := make([]int64, 0, int(np)*n) // scaled projections, n per line
	vi := 0                            // position in V of the current row's first point
	nest.ForEachRow(func(row vec.Int, hi int64) bool {
		lo := row[last]
		add := func(a, b int64) {
			if a > b {
				return
			}
			row[last] = a
			t := pi.Dot(row)
			for x := a; ; x++ {
				row[last] = x
				l := lineEnd(row) + 1
				ps.Fibers = append(ps.Fibers, Fiber{T0: t, X0: int32(vi + int(x-lo)), Len: int32(l)})
				w := len(buf)
				buf = buf[:w+n]
				for j, xj := range row {
					buf[w+j] = s*xj - pi[j]*t
				}
				if x == b {
					break
				}
				t += pi[last]
			}
		}
		a1, b1, a2, b2 := firstRuns(nest, row, hi, u, pred)
		add(a1, b1)
		add(a2, b2)
		vi += int(hi-lo) + 1
		return true
	})
	return buf, nil
}

// sortLines puts the lines traceLines found in the lexicographic order of
// their projections: buf becomes the coordinate column, the fibers follow
// their points, and the lattice index is laid over them. A structure
// without points gets no index.
func (ps *Structure) sortLines(buf []int64) {
	n, np := len(ps.Pi), len(ps.Fibers)
	ps.coords, ps.Points = buf, make([]struct{}, np)
	if np == 0 {
		return
	}
	lo := append([]int64(nil), buf[:n]...)
	hi := append([]int64(nil), buf[:n]...)
	for i := n; i < len(buf); i += n {
		for j, y := range buf[i : i+n] {
			lo[j], hi[j] = min(lo[j], y), max(hi[j], y)
		}
	}
	// order lists the lines by their points' lexicographic order. The
	// lattice table's slot order is that order, so one scan of the table
	// sorts the lines and renumbers the slots by rank.
	order := make([]int32, 0, np)
	li := newLatticeIndex(ps.Pi, lo, hi)
	if li != nil {
		for id := 0; id < np; id++ {
			li.table[li.offset(buf[id*n:id*n+n])] = int32(id) + 1
		}
		for off, v := range li.table {
			if v != 0 {
				order = append(order, v-1)
				li.table[off] = int32(len(order))
			}
		}
	} else {
		for id := 0; id < np; id++ {
			order = append(order, int32(id))
		}
		slices.SortFunc(order, func(a, b int32) int {
			return slices.Compare(buf[int(a)*n:int(a)*n+n], buf[int(b)*n:int(b)*n+n])
		})
	}
	// Put the points and fibers in rank order in place, one permutation
	// cycle at a time: rank r takes the line at order[r], and a placed
	// slot's order entry is cleared to -1.
	first := make([]int64, n)
	for r := range order {
		if order[r] < 0 {
			continue
		}
		firstFiber := ps.Fibers[r]
		copy(first, buf[r*n:r*n+n])
		for j := r; ; {
			k := int(order[j])
			order[j] = -1
			if k == r {
				ps.Fibers[j] = firstFiber
				copy(buf[j*n:j*n+n], first)
				break
			}
			ps.Fibers[j] = ps.Fibers[k]
			copy(buf[j*n:j*n+n], buf[k*n:k*n+n])
			j = k
		}
	}
	if li != nil {
		ps.lattice = li
	} else {
		ps.mapIndex()
	}
}

// firstRuns returns the one or two runs [a1, b1] and [a2, b2] of the row
// [row[n−1], hi] whose points x have their predecessor x − u outside V;
// an empty run has a > b. The predecessors of the row's points lie on the
// row of the prefix shifted by −u, moved by u_n, so the runs are the row
// minus that interval. pred is scratch of the nest's depth.
func firstRuns(nest *loop.Nest, row vec.Int, hi int64, u, pred vec.Int) (a1, b1, a2, b2 int64) {
	last := len(row) - 1
	for j := range row[:last] {
		pred[j] = row[j] - u[j]
	}
	lo := row[last]
	if plo, phi, ok := nest.Row(pred); ok {
		return lo, min(hi, plo+u[last]-1), max(lo, phi+u[last]+1), hi
	}
	return lo, hi, 1, 0
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
	// Drop the last dimension with Π_k ≠ 0 (Π is nonzero, so one always
	// exists); the hyperplane equation makes it redundant. It is a
	// function of the coordinates before it, since Π is zero after it,
	// so the table's row-major slot order is the lexicographic order of
	// the points.
	drop := -1
	for j := 0; j < n; j++ {
		if pi[j] != 0 {
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

// mapIndex builds the string-keyed fallback index over the points.
func (ps *Structure) mapIndex() {
	ps.index = make(map[string]int, ps.NumPoints())
	for i := range ps.NumPoints() {
		ps.index[ps.Point(i).Key()] = i
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

// lookup returns the index of the scaled point among coords, n entries
// per point, or -1.
func (li *latticeIndex) lookup(p vec.Int, coords []int64) int {
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
	i, n := int(t)-1, len(p)
	if !slices.Equal(coords[i*n:i*n+n], p) {
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
		return ps.lattice.lookup(scaled, ps.coords)
	}
	i, ok := ps.index[scaled.Key()]
	if !ok {
		return -1
	}
	return i
}

// Bounds returns the bounding box [lo, hi] of the scaled projected
// points, coordinate by coordinate; nil when there are none. A dense
// index keeps its box, and Bounds returns it; the slices are then the
// structure's, and callers must not modify them.
func (ps *Structure) Bounds() (lo, hi []int64) {
	n := len(ps.Pi)
	if ps.lattice != nil {
		return ps.lattice.lo, ps.lattice.hi
	}
	if ps.NumPoints() == 0 {
		return nil, nil
	}
	lo, hi = slices.Clone(ps.Point(0)), slices.Clone(ps.Point(0))
	for i := n; i < len(ps.coords); i += n {
		for j, x := range ps.coords[i : i+n] {
			lo[j], hi[j] = min(lo[j], x), max(hi[j], x)
		}
	}
	return lo, hi
}

// LatticeSlot returns the dense index's table slot for the scaled
// position p, which must lie inside Bounds; ok is false when lookups run
// on the fallback map. The slot ignores the coordinate the hyperplane
// equation makes redundant, so walking positions p + k·d is one addition
// of LatticeStep(d) per step.
func (ps *Structure) LatticeSlot(p vec.Int) (slot int64, ok bool) {
	if ps.lattice == nil {
		return 0, false
	}
	return ps.lattice.offset(p), true
}

// LatticeStep returns how far one step along the scaled vector d moves a
// table slot: LatticeSlot(p + d) = LatticeSlot(p) + LatticeStep(d) while
// both positions lie inside Bounds. Zero without a dense index.
func (ps *Structure) LatticeStep(d vec.Int) int64 {
	if ps.lattice == nil {
		return 0
	}
	var step int64
	for j, x := range d {
		step += x * ps.lattice.strides[j]
	}
	return step
}

// PointAtSlot returns the projected point filed under a dense table slot,
// or -1 for an empty slot. The slot does not pin the redundant
// coordinate, so a position off the hyperplane Π·y = 0 shares its slot
// with a point it is not: callers compare the point with their position.
func (ps *Structure) PointAtSlot(slot int64) int {
	return int(ps.lattice.table[slot]) - 1
}

// IndexBytes returns the bytes the point index holds: the dense lattice
// table, or an estimate of the fallback map's keys and buckets.
func (ps *Structure) IndexBytes() int64 {
	if ps.lattice != nil {
		return int64(len(ps.lattice.table)) * 4
	}
	return int64(len(ps.index)) * 64
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
	out := make(vec.Rat, len(ps.Pi))
	for k, x := range ps.Point(i) {
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

// LineOf maps every original vertex index (its position in Points) to
// the projected point of its projection line. It walks each fiber from
// its first point, so it costs |V| and returns a fresh slice the caller
// owns.
func (ps *Structure) LineOf() []int {
	st := ps.Orig
	out := make([]int, st.Len())
	var x vec.Int
	for pt, f := range ps.Fibers {
		x = st.Point(int(f.X0), x)
		for vi, t := int(f.X0), int32(0); ; t++ {
			out[vi] = pt
			if t+1 == f.Len {
				break
			}
			vi = st.NeighborOf(vi, x, ps.U)
			for j, u := range ps.U {
				x[j] += u
			}
		}
	}
	return out
}

// FiberPoints returns the index points on the projection line of projected
// point i, in execution-time order.
func (ps *Structure) FiberPoints(i int) []vec.Int {
	f := ps.Fibers[i]
	out := make([]vec.Int, f.Len)
	x := ps.Orig.Point(int(f.X0), nil)
	for t := range out {
		out[t] = x.AddScaled(int64(t), ps.U)
	}
	return out
}
