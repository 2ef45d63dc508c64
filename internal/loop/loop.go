// Package loop models n-nested loops with constant (uniform) loop-carried
// dependencies — the program class of the paper (§II).
//
// A Nest has per-dimension affine bounds (lower/upper expressions that may
// reference outer loop indices, as in the paper's loop model where l_j and
// u_j are "integer-valued linear expressions possibly involving
// I_1 … I_{j-1}") and statements whose array accesses are *uniform*:
// the array of a pipelined single-assignment variable is indexed by the full
// iteration vector plus a constant offset, exactly the rewritten forms the
// paper shows for matrix multiplication (Example 2) and matrix–vector
// multiplication (L5). Dependence vectors are derived as
// writeOffset − readOffset for each (write, read) pair on the same variable.
package loop

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/ints"
	"repro/internal/vec"
)

// Affine is an affine expression c + Σ Coeffs[k]·I_k over the loop indices.
// For a bound of dimension j, only coefficients of dimensions < j may be
// nonzero (checked by Nest.Validate).
type Affine struct {
	Const  int64
	Coeffs []int64 // length == nest dims; may be nil for a constant
}

// Const returns a constant affine expression.
func Const(c int64) Affine { return Affine{Const: c} }

// Eval evaluates the expression at the given index point prefix.
func (a Affine) Eval(idx vec.Int) int64 { return a.evalShifted(idx, nil) }

// evalShifted evaluates the expression at p+d (at p when d is nil)
// without building the sum: a bound is affine, so its value at p+d is its
// value at p plus coeffs·d.
func (a Affine) evalShifted(p, d vec.Int) int64 {
	v := a.Const
	for k, c := range a.Coeffs {
		if c != 0 {
			x := p[k]
			if d != nil {
				x += d[k]
			}
			v += c * x
		}
	}
	return v
}

// linear evaluates the expression's index terms at u (its change along
// the direction u).
func (a Affine) linear(u vec.Int) int64 { return a.evalShifted(u, nil) - a.Const }

// IsConst reports whether the expression has no index terms.
func (a Affine) IsConst() bool {
	for _, c := range a.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// String renders the expression.
func (a Affine) String() string {
	s := fmt.Sprintf("%d", a.Const)
	for k, c := range a.Coeffs {
		if c != 0 {
			s += fmt.Sprintf("%+d*I%d", c, k+1)
		}
	}
	return s
}

// Access is a uniform array access Var[I + Offset].
type Access struct {
	Var    string
	Offset vec.Int
}

// Stmt is one loop-body statement with its uniform accesses.
type Stmt struct {
	Label  string
	Writes []Access
	Reads  []Access
	// Ops is the abstract operation count of the statement (floating-point
	// multiply/adds); used by the cost model. Defaults to 1 if zero.
	Ops int
}

// OpCount returns the effective operation count of the statement.
func (s Stmt) OpCount() int {
	if s.Ops <= 0 {
		return 1
	}
	return s.Ops
}

// Nest is an n-nested loop.
type Nest struct {
	Name  string
	Dims  int
	Lower []Affine
	Upper []Affine
	Stmts []Stmt
}

// NewRect returns a nest over the rectangular index set
// [lo_1, hi_1] × … × [lo_n, hi_n].
func NewRect(name string, lo, hi []int64) *Nest {
	if len(lo) != len(hi) {
		panic("loop: NewRect bounds length mismatch")
	}
	n := &Nest{Name: name, Dims: len(lo)}
	for i := range lo {
		n.Lower = append(n.Lower, Const(lo[i]))
		n.Upper = append(n.Upper, Const(hi[i]))
	}
	return n
}

// RetainedBytes returns the bytes the nest pins: its struct, its bounds'
// tables and coefficients, and its statements with their accesses and
// offsets. Names and variable strings are counted by length; the
// literals built-in kernels use live in static data, which costs less.
func (n *Nest) RetainedBytes() int64 {
	b := int64(unsafe.Sizeof(*n)) + int64(len(n.Name))
	for _, bounds := range [...][]Affine{n.Lower, n.Upper} {
		b += int64(cap(bounds)) * int64(unsafe.Sizeof(Affine{}))
		for _, a := range bounds {
			b += int64(cap(a.Coeffs)) * 8
		}
	}
	b += int64(cap(n.Stmts)) * int64(unsafe.Sizeof(Stmt{}))
	for _, st := range n.Stmts {
		b += int64(len(st.Label))
		for _, accs := range [...][]Access{st.Writes, st.Reads} {
			b += int64(cap(accs)) * int64(unsafe.Sizeof(Access{}))
			for _, a := range accs {
				b += int64(len(a.Var)) + int64(cap(a.Offset))*8
			}
		}
	}
	return b
}

// Validate checks structural well-formedness: positive depth, bounds of the
// right arity that reference only outer indices, and accesses whose offsets
// match the nest depth.
func (n *Nest) Validate() error {
	if n.Dims <= 0 {
		return fmt.Errorf("loop %q: non-positive depth %d", n.Name, n.Dims)
	}
	if len(n.Lower) != n.Dims || len(n.Upper) != n.Dims {
		return fmt.Errorf("loop %q: bounds arity %d/%d, want %d", n.Name, len(n.Lower), len(n.Upper), n.Dims)
	}
	for j := 0; j < n.Dims; j++ {
		for _, a := range []Affine{n.Lower[j], n.Upper[j]} {
			if len(a.Coeffs) > n.Dims {
				return fmt.Errorf("loop %q: bound %d has %d coefficients", n.Name, j, len(a.Coeffs))
			}
			for k := j; k < len(a.Coeffs); k++ {
				if a.Coeffs[k] != 0 {
					return fmt.Errorf("loop %q: bound of I%d references I%d (not an outer index)", n.Name, j+1, k+1)
				}
			}
		}
	}
	for _, s := range n.Stmts {
		for _, acc := range append(append([]Access{}, s.Writes...), s.Reads...) {
			if len(acc.Offset) != n.Dims {
				return fmt.Errorf("loop %q stmt %q: access %s offset arity %d, want %d",
					n.Name, s.Label, acc.Var, len(acc.Offset), n.Dims)
			}
		}
	}
	return nil
}

// Contains reports whether the index point lies inside the iteration space.
func (n *Nest) Contains(p vec.Int) bool {
	if len(p) != n.Dims {
		return false
	}
	for j := 0; j < n.Dims; j++ {
		if p[j] < n.Lower[j].Eval(p) || p[j] > n.Upper[j].Eval(p) {
			return false
		}
	}
	return true
}

// Row returns the innermost row [lo, hi] under the prefix p (whose first
// n−1 coordinates are read), and whether the prefix lies inside the outer
// loops' bounds with a non-empty row.
func (n *Nest) Row(p vec.Int) (lo, hi int64, ok bool) {
	last := n.Dims - 1
	for j := 0; j < last; j++ {
		if p[j] < n.Lower[j].Eval(p) || p[j] > n.Upper[j].Eval(p) {
			return 0, 0, false
		}
	}
	lo, hi = n.Lower[last].Eval(p), n.Upper[last].Eval(p)
	return lo, hi, lo <= hi
}

// ForEachUntil visits the index set in lexicographic order until visit
// returns false; it reports whether the walk ran to completion. It is the
// abortable primitive behind cancellable enumeration.
func (n *Nest) ForEachUntil(visit func(vec.Int) bool) bool {
	return n.walk(func(_ int, p vec.Int) bool { return visit(p.Clone()) })
}

// walk is ForEachUntil without the per-point copy, with each point's
// position in the walk: visit sees one scratch vector that the next
// point overwrites, so it must copy what it keeps.
func (n *Nest) walk(visit func(vi int, p vec.Int) bool) bool {
	last := n.Dims - 1
	vi := 0
	return n.walkRows(nil, func(p vec.Int, hi int64) bool {
		for x := p[last]; ; x++ {
			p[last] = x
			if !visit(vi, p) {
				return false
			}
			vi++
			if x == hi {
				return true
			}
		}
	})
}

// ForEachRow visits every non-empty innermost row of the index set in
// lexicographic order until visit returns false, and reports whether the
// walk ran to completion. row is the row's first point (row[n−1] is the
// innermost lower bound) and hi its innermost upper bound; row is scratch
// that the next call overwrites, and visit may overwrite row[n−1]. The
// walk costs one bound evaluation per row rather than one call per point.
func (n *Nest) ForEachRow(visit func(row vec.Int, hi int64) bool) bool {
	return n.walkRows(nil, visit)
}

// walkRows is the odometer behind every enumeration: it descends the
// outer loops, and at the innermost level hands visit the whole row
// [row[n−1], hi] at once. visit may overwrite row[n−1]. A non-nil rows
// records every prefix the walk descends into, empty rows included.
func (n *Nest) walkRows(rows *rowIndex, visit func(row vec.Int, hi int64) bool) bool {
	last := n.Dims - 1
	idx := make(vec.Int, n.Dims)
	hi := make([]int64, n.Dims)
	j := 0
	for {
		// Descend: start every outer loop at its lower bound; an empty
		// range stops the descent and advances the loop outside it.
		for ; j < last; j++ {
			idx[j] = n.Lower[j].Eval(idx)
			hi[j] = n.Upper[j].Eval(idx)
			if rows != nil {
				rows.enter(j, idx[j], hi[j])
			}
			if idx[j] > hi[j] {
				break
			}
		}
		if j == last {
			idx[last] = n.Lower[last].Eval(idx)
			h := n.Upper[last].Eval(idx)
			if rows != nil {
				rows.enter(last, idx[last], h)
			}
			if idx[last] <= h && !visit(idx, h) {
				return false
			}
			j--
		}
		// Advance the innermost outer loop with iterations left.
		for j >= 0 && idx[j] >= hi[j] {
			j--
		}
		if j < 0 {
			return true
		}
		idx[j]++
		j++
	}
}

// LineEnd returns a function giving, for a point x of the index set, the
// largest t for which x + t·u is in the index set. Every bound is an
// affine inequality, so the index set is the lattice points of a convex
// polytope and meets the line in one interval. The bounds that do not
// shrink along u hold for every t ≥ 0; each one that shrinks by s per
// step, from value v ≥ 0 at x, ends the line after ⌊v/s⌋ steps. The
// shrinking bounds are found once, for callers that trace many parallel
// lines. u must be nonzero.
func (n *Nest) LineEnd(u vec.Int) func(x vec.Int) int64 {
	// A limit is bound j's lower (or upper) inequality, x_j − L_j ≥ 0 (or
	// U_j − x_j ≥ 0), shrinking by shrink per step along u.
	type limit struct {
		j      int
		upper  bool
		shrink int64
	}
	var lims []limit
	for j := 0; j < n.Dims; j++ {
		if s := u[j] - n.Lower[j].linear(u); s < 0 {
			lims = append(lims, limit{j, false, -s})
		}
		if s := n.Upper[j].linear(u) - u[j]; s < 0 {
			lims = append(lims, limit{j, true, -s})
		}
	}
	return func(x vec.Int) int64 {
		end := int64(math.MaxInt64)
		for _, l := range lims {
			v := x[l.j] - n.Lower[l.j].Eval(x)
			if l.upper {
				v = n.Upper[l.j].Eval(x) - x[l.j]
			}
			end = min(end, v/l.shrink)
		}
		return end
	}
}

// Size returns the number of iterations.
func (n *Nest) Size() int64 { return n.rowCount(context.Background(), math.MaxInt64) }

// OpsPerIteration returns the total abstract operation count of the loop
// body (the paper's matvec body counts 2: one multiply, one add).
func (n *Nest) OpsPerIteration() int {
	total := 0
	for _, s := range n.Stmts {
		total += s.OpCount()
	}
	if total == 0 {
		return 1
	}
	return total
}

// DepInfo records one derived dependence and its provenance.
type DepInfo struct {
	Vector   vec.Int
	Var      string
	FromStmt string // writer
	ToStmt   string // reader
}

// Dependences derives the set of constant flow-dependence vectors of the
// nest: for every (write, read) pair on the same variable, the vector
// d = writeOffset − readOffset, kept when it is lexicographically positive
// (a loop-carried flow dependence). Vectors are deduplicated and returned in
// lexicographic order, matching the paper's dependence sets for L1,
// Example 2, and L5.
func (n *Nest) Dependences() []vec.Int {
	infos := n.DependenceDetails()
	seen := map[string]bool{}
	var out []vec.Int
	for _, in := range infos {
		k := in.Vector.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, in.Vector)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// DependenceDetails derives dependences with provenance, without
// deduplication across (variable, statement) pairs.
func (n *Nest) DependenceDetails() []DepInfo {
	var out []DepInfo
	for _, sw := range n.Stmts {
		for _, w := range sw.Writes {
			for _, sr := range n.Stmts {
				for _, r := range sr.Reads {
					if w.Var != r.Var {
						continue
					}
					d := w.Offset.Sub(r.Offset)
					if !d.LexPositive() {
						// Zero vectors are intra-iteration; lex-negative
						// differences correspond to the reversed pair and
						// are covered when that pair is visited.
						continue
					}
					out = append(out, DepInfo{Vector: d, Var: w.Var, FromStmt: sw.Label, ToStmt: sr.Label})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Vector.Cmp(out[j].Vector); c != 0 {
			return c < 0
		}
		return out[i].Var < out[j].Var
	})
	return out
}

// Structure is the computational structure Q = (V, D) of Definition 2.
type Structure struct {
	Nest *Nest
	// V is the vertex set (index points) in lexicographic order. The
	// constructors fill it; a compact structure (see Compact) leaves it
	// nil. Walk it with Points, or read one vertex with Point.
	V []vec.Int
	// D is the set of dependence vectors.
	D []vec.Int
	// n is |V|, counted at enumeration.
	n int
	// rect holds the arithmetic indexer for rectangular nests:
	// idx(p) = Σ (p_k − lo_k)·stride_k.
	rect *rectIndex
	// rows indexes every other nest by per-level row offsets (nil when
	// rect is set).
	rows *rowIndex
}

// rectIndex is the O(dims) closed-form vertex indexer for nests whose
// bounds are all constant — the dominant case, and the one the map-based
// lookup made the pipeline's hot path at M = 1024 scale.
type rectIndex struct {
	lo, hi  []int64
	strides []int64
	size    int64 // number of points in the box
}

// ErrTooLarge classifies iteration spaces whose sizing arithmetic
// overflows int64 — adversarial bounds must fail loudly at structure
// construction, not wrap silently into bogus stride indexing.
var ErrTooLarge = errors.New("loop: iteration space too large")

// newRectIndex builds the stride indexer, or returns (nil, nil) for nests
// with non-constant bounds (the row index handles those). Stride sizing
// multiplies user-supplied extents, so every step is overflow-checked: a
// product past int64 returns ErrTooLarge.
func newRectIndex(n *Nest) (*rectIndex, error) {
	r := &rectIndex{
		lo:      make([]int64, n.Dims),
		hi:      make([]int64, n.Dims),
		strides: make([]int64, n.Dims),
	}
	for j := 0; j < n.Dims; j++ {
		if !n.Lower[j].IsConst() || !n.Upper[j].IsConst() {
			return nil, nil
		}
		r.lo[j] = n.Lower[j].Const
		r.hi[j] = n.Upper[j].Const
		if r.hi[j] < r.lo[j] {
			return nil, nil // empty range: the row index handles it
		}
	}
	stride := int64(1)
	for j := n.Dims - 1; j >= 0; j-- {
		r.strides[j] = stride
		extent, ok := ints.CheckedSub(r.hi[j], r.lo[j])
		if !ok {
			return nil, fmt.Errorf("%w: dimension %d spans [%d, %d]", ErrTooLarge, j+1, r.lo[j], r.hi[j])
		}
		span, ok := ints.CheckedAdd(extent, 1)
		if !ok {
			return nil, fmt.Errorf("%w: dimension %d spans [%d, %d]", ErrTooLarge, j+1, r.lo[j], r.hi[j])
		}
		stride, ok = ints.CheckedMul(stride, span)
		if !ok {
			return nil, fmt.Errorf("%w: %d dimensions overflow the index space at dimension %d", ErrTooLarge, n.Dims, j+1)
		}
	}
	r.size = stride
	return r, nil
}

func (r *rectIndex) indexOf(p vec.Int) int {
	var idx int64
	for j, x := range p {
		if x < r.lo[j] || x > r.hi[j] {
			return -1
		}
		idx += (x - r.lo[j]) * r.strides[j]
	}
	return int(idx)
}

// neighborOf returns the index of p+d given that p is the vertex at
// position vi, without materializing p+d: the offset is Σ d_k·stride_k and
// each stepped coordinate is bounds-checked. A nil p decodes the stepped
// coordinates from vi instead. O(dims), zero allocations.
func (r *rectIndex) neighborOf(p vec.Int, vi int, d vec.Int) int {
	var off int64
	for j, dx := range d {
		if dx == 0 {
			continue
		}
		var x int64
		if p != nil {
			x = p[j]
		} else {
			x = r.lo[j] + int64(vi)/r.strides[j]%(r.hi[j]-r.lo[j]+1)
		}
		if x += dx; x < r.lo[j] || x > r.hi[j] {
			return -1
		}
		off += dx * r.strides[j]
	}
	return vi + int(off)
}

// point writes the vertex at position vi into p: each coordinate is the
// quotient of what the outer strides leave of vi.
func (r *rectIndex) point(vi int, p vec.Int) {
	rem := int64(vi)
	for j, s := range r.strides {
		q := rem / s
		p[j] = r.lo[j] + q
		rem -= q * s
	}
}

// rowIndex is the dense vertex indexer for nests whose bounds reference
// outer indices. Number the in-range prefixes of each length in the
// lexicographic order walk visits them in: first[j][r] is the position of
// the first child of the length-j prefix at position r, and its child
// with p_j = lower_j(p) + t sits at first[j][r] + t. The length-n
// prefixes are the vertices, so descending the levels maps a point to its
// position in V with O(dims²) bound arithmetic and no allocation. A
// prefix whose row is empty still gets an entry (the position its
// children would start at), so the table has exactly one entry per prefix
// walk descends into — never more than walk itself visits. rectIndex is
// the constant-bounds case of the same formula, with the offsets in
// closed form.
type rowIndex struct {
	lower, upper []Affine
	first        [][]int
	// next[j] counts the length-(j+1) prefixes seen so far while walk
	// builds the table.
	next []int
}

func newRowIndex(n *Nest) *rowIndex {
	return &rowIndex{
		lower: n.Lower,
		upper: n.Upper,
		first: make([][]int, n.Dims),
		next:  make([]int, n.Dims),
	}
}

// enter records the prefix walk descends into at level j, whose row
// spans [lo, hi].
func (t *rowIndex) enter(j int, lo, hi int64) {
	t.first[j] = append(t.first[j], t.next[j])
	if hi >= lo {
		t.next[j] += int(hi - lo + 1)
	}
}

// find returns the position in V of p+d, or -1 when it lies outside the
// index set; a nil d finds p itself.
func (t *rowIndex) find(p, d vec.Int) int {
	r := 0
	for j, x := range p {
		if d != nil {
			x += d[j]
		}
		lo, hi := t.lower[j].evalShifted(p, d), t.upper[j].evalShifted(p, d)
		if x < lo || x > hi {
			return -1
		}
		r = t.first[j][r] + int(x-lo)
	}
	return r
}

// point writes the vertex at position vi into p. It climbs from the
// innermost level, finding at each the prefix whose children span the
// position: the last one whose first child is at or before it (an empty
// prefix's entry equals its successor's, so it is never the last). The
// position within that row is the coordinate's offset from its lower
// bound, which the descent then adds, outermost level first.
func (t *rowIndex) point(vi int, p vec.Int) {
	pos := vi
	for j := len(p) - 1; j >= 0; j-- {
		f := t.first[j]
		r, _ := slices.BinarySearch(f, pos+1)
		r--
		p[j] = int64(pos - f[r])
		pos = r
	}
	for j := range p {
		p[j] += t.lower[j].Eval(p)
	}
}

// NewStructure builds the computational structure of the nest, deriving D
// from the statements. Supplying explicit deps overrides derivation (used
// by kernels that state their dependence matrix directly).
func NewStructure(n *Nest, explicitDeps ...vec.Int) (*Structure, error) {
	return NewStructureCtx(context.Background(), n, explicitDeps...)
}

// enumCheckEvery is how often (in enumerated points) NewStructureCtx polls
// the context, amortizing the cancellation check over the hot enumeration.
const enumCheckEvery = 8192

// enumPreallocCap bounds the coordinates NewStructureCtx reserves up front
// for a rectangular nest; a larger box grows its buffer as it enumerates,
// so a deadline can still stop it before it is all allocated.
const enumPreallocCap = 1 << 24

// NewStructureCtx is NewStructure with cooperative cancellation: the
// enumeration fills V one innermost row at a time, with no call per
// point, and polls ctx every enumCheckEvery points, so a caller's deadline
// bounds the enumeration of even huge index sets. A nil ctx means
// context.Background(). The structure it returns holds V.
func NewStructureCtx(ctx context.Context, n *Nest, explicitDeps ...vec.Int) (*Structure, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	d := explicitDeps
	if len(d) == 0 {
		d = n.Dependences()
	}
	for _, dv := range d {
		if len(dv) != n.Dims {
			return nil, fmt.Errorf("loop %q: dependence %v arity %d, want %d", n.Name, dv, len(dv), n.Dims)
		}
		if dv.IsZero() {
			return nil, fmt.Errorf("loop %q: zero dependence vector", n.Name)
		}
	}
	s := &Structure{Nest: n, D: d}
	rect, err := newRectIndex(n)
	if err != nil {
		return nil, fmt.Errorf("loop %q: %w", n.Name, err)
	}
	if s.rect = rect; s.rect == nil {
		s.rows = newRowIndex(n)
	}
	// A rectangular nest knows its size up front; any other nest counts
	// its rows first, so the buffer pins no spare capacity.
	var size int64
	if rect != nil {
		size = rect.size
	} else {
		size = n.rowCount(ctx, enumPreallocCap/int64(n.Dims))
	}
	v, err := n.vertices(ctx, s.rows, size)
	if err != nil {
		return nil, err
	}
	s.V, s.n = v, len(v)
	return s, nil
}

// vertices enumerates the index set one innermost row at a time, with no
// call per point, polling ctx every enumCheckEvery points. All
// coordinates go into one flat buffer and each vertex is a capped window
// onto it, so enumeration makes one allocation instead of one per point;
// size, when known (≥ 0), sizes that buffer up front. A non-nil rows
// records the row index as the walk goes.
func (n *Nest) vertices(ctx context.Context, rows *rowIndex, size int64) ([]vec.Int, error) {
	dims := n.Dims
	var buf []int64
	if size >= 0 && size <= enumPreallocCap/int64(dims) {
		buf = make([]int64, 0, size*int64(dims))
	}
	count, poll := 0, enumCheckEvery
	var ctxErr error
	last := dims - 1
	n.walkRows(rows, func(p vec.Int, hi int64) bool {
		for lo := p[last]; ; {
			// Fill at most enumCheckEvery points between polls.
			end := hi
			if hi-lo >= enumCheckEvery {
				end = lo + enumCheckEvery - 1
			}
			m := int(end-lo) + 1
			w := len(buf)
			buf = slices.Grow(buf, m*dims)[:w+m*dims]
			for x := lo; ; x++ {
				for j := 0; j < last; j++ {
					buf[w+j] = p[j]
				}
				buf[w+last] = x
				w += dims
				if x == end {
					break
				}
			}
			if count += m; count >= poll {
				poll = count + enumCheckEvery
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			if end == hi {
				return true
			}
			lo = end + 1
		}
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	if count == 0 {
		return nil, nil
	}
	v := make([]vec.Int, count)
	for i := range v {
		v[i] = buf[i*dims : i*dims+dims : i*dims+dims]
	}
	return v, nil
}

// Compact returns a copy of the structure without its vertex set: it
// shares the nest, D and the vertex index, and every method reads the
// index, never V. A compact structure is safe for concurrent use.
func (s *Structure) Compact() *Structure {
	return &Structure{Nest: s.Nest, D: s.D, n: s.n, rect: s.rect, rows: s.rows}
}

// Points visits every vertex in lexicographic order, with its position vi
// in V (0…Len−1), until visit returns false. It walks the nest's rows and
// never reads V: p is one buffer that the next point overwrites, so visit
// must copy what it keeps and must not modify it.
func (s *Structure) Points(visit func(vi int, p vec.Int) bool) { s.Nest.walk(visit) }

// Point writes the coordinates of vertex vi into buf, grown when it is
// too short, and returns it. It inverts VertexIndex from the vertex index
// alone: in closed form on a rectangular structure, with one binary
// search per level over the row offsets on any other.
func (s *Structure) Point(vi int, buf vec.Int) vec.Int {
	buf = slices.Grow(buf[:0], s.Nest.Dims)[:s.Nest.Dims]
	if s.rect != nil {
		s.rect.point(vi, buf)
	} else {
		s.rows.point(vi, buf)
	}
	return buf
}

// Len returns |V|, the number of index points, counted at enumeration.
func (s *Structure) Len() int { return s.n }

// rowCount counts the nest's points one innermost row at a time, or
// returns -1 once the count passes limit or ctx is done, so a caller can
// size the vertex buffer exactly before enumerating.
func (n *Nest) rowCount(ctx context.Context, limit int64) int64 {
	var count, rows int64
	n.walkRows(nil, func(p vec.Int, hi int64) bool {
		count += hi - p[n.Dims-1] + 1
		if rows++; rows%enumCheckEvery == 0 && ctx.Err() != nil {
			count = -1
		}
		if count > limit {
			count = -1
		}
		return count >= 0
	})
	return count
}

// HasVertex reports whether p is a vertex of the structure.
func (s *Structure) HasVertex(p vec.Int) bool {
	return s.VertexIndex(p) >= 0
}

// VertexIndex returns the position of p in V, or -1. It reads the vertex
// index, never V.
func (s *Structure) VertexIndex(p vec.Int) int {
	if len(p) != s.Nest.Dims {
		return -1
	}
	if s.rect != nil {
		return s.rect.indexOf(p)
	}
	return s.rows.find(p, nil)
}

// Rectangular reports whether the structure uses the stride-based vertex
// index (all bounds constant). Other structures use the row-offset index.
func (s *Structure) Rectangular() bool { return s.rect != nil }

// NeighborIndex returns the position in V of V[vi]+d, or -1 when the
// neighbour lies outside the index set. It reads the vertex index, never
// V, and allocates nothing: a rectangular structure decodes only the
// coordinates d steps; any other decodes the point (Point) first, so a
// caller walking the points should use NeighborOf with the point in hand.
func (s *Structure) NeighborIndex(vi int, d vec.Int) int {
	if s.rect != nil {
		return s.rect.neighborOf(nil, vi, d)
	}
	var buf [8]int64
	return s.rows.find(s.Point(vi, buf[:0]), d)
}

// NeighborOf is NeighborIndex given p, the coordinates of vertex vi: the
// form a walk over Points resolves dependence arcs with.
func (s *Structure) NeighborOf(vi int, p, d vec.Int) int {
	if s.rect != nil {
		return s.rect.neighborOf(p, vi, d)
	}
	return s.rows.find(p, d)
}

// ForEachEdgeIdx visits every dependence arc of the structure by vertex
// index: for each vertex ui and dependence D[di], the arc ui → vi when
// V[ui]+D[di] is the vertex vi. It walks the points (Points) and never
// reads V.
func (s *Structure) ForEachEdgeIdx(visit func(ui, vi, di int)) {
	s.Points(func(ui int, p vec.Int) bool {
		for di, d := range s.D {
			if vi := s.NeighborOf(ui, p, d); vi >= 0 {
				visit(ui, vi, di)
			}
		}
		return true
	})
}

// EdgeCount returns the total number of dependence arcs (the paper counts
// 33 for loop L1 on a 4×4 index set).
func (s *Structure) EdgeCount() int {
	c := 0
	s.ForEachEdgeIdx(func(int, int, int) { c++ })
	return c
}

// Dim returns the nest depth.
func (s *Structure) Dim() int { return s.Nest.Dims }
