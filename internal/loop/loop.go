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
	"sort"

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

// ForEach visits every point of the index set in lexicographic order.
func (n *Nest) ForEach(visit func(vec.Int)) {
	n.ForEachUntil(func(p vec.Int) bool {
		visit(p)
		return true
	})
}

// ForEachUntil visits the index set in lexicographic order until visit
// returns false; it reports whether the walk ran to completion. It is the
// abortable primitive behind cancellable enumeration.
func (n *Nest) ForEachUntil(visit func(vec.Int) bool) bool {
	return n.walk(nil, func(p vec.Int) bool { return visit(p.Clone()) })
}

// walk is ForEachUntil without the per-point copy: visit sees one scratch
// vector that the next point overwrites, so it must copy what it keeps.
// A non-nil rows records every prefix the walk descends into.
func (n *Nest) walk(rows *rowIndex, visit func(vec.Int) bool) bool {
	dims := n.Dims
	idx := make(vec.Int, dims)
	hi := make([]int64, dims)
	j := 0
	for {
		// Descend: start every inner loop at its lower bound; an empty
		// range stops the descent and advances the loop outside it.
		for ; j < dims; j++ {
			idx[j] = n.Lower[j].Eval(idx)
			hi[j] = n.Upper[j].Eval(idx)
			if rows != nil {
				rows.enter(j, idx[j], hi[j])
			}
			if idx[j] > hi[j] {
				break
			}
		}
		if j == dims {
			if !visit(idx) {
				return false
			}
			j--
		}
		// Advance the innermost loop with iterations left.
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

// Points materializes the index set.
func (n *Nest) Points() []vec.Int {
	var out []vec.Int
	n.ForEach(func(p vec.Int) { out = append(out, p) })
	return out
}

// Size returns the number of iterations.
func (n *Nest) Size() int64 {
	var c int64
	n.ForEach(func(vec.Int) { c++ })
	return c
}

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
	// V is the vertex set (index points) in lexicographic order.
	V []vec.Int
	// D is the set of dependence vectors.
	D []vec.Int
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
// each stepped coordinate is bounds-checked. O(dims), zero allocations.
func (r *rectIndex) neighborOf(p vec.Int, vi int, d vec.Int) int {
	var off int64
	for j, dx := range d {
		if dx == 0 {
			continue
		}
		x := p[j] + dx
		if x < r.lo[j] || x > r.hi[j] {
			return -1
		}
		off += dx * r.strides[j]
	}
	return vi + int(off)
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

// NewStructureCtx is NewStructure with cooperative cancellation: the point
// enumeration polls ctx every enumCheckEvery points, so a caller's deadline
// bounds the enumeration of even huge index sets. A nil ctx means
// context.Background().
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
	// All coordinates go into one flat buffer; V[i] is a capped window
	// onto it, so enumeration makes one allocation instead of one per
	// point. A rectangular nest knows its size up front.
	dims := n.Dims
	var buf []int64
	if rect != nil && rect.size <= enumPreallocCap/int64(dims) {
		buf = make([]int64, 0, rect.size*int64(dims))
	}
	count := 0
	var ctxErr error
	n.walk(s.rows, func(p vec.Int) bool {
		buf = append(buf, p...)
		count++
		if count%enumCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		return true
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	if count > 0 {
		s.V = make([]vec.Int, count)
	}
	for i := range s.V {
		s.V[i] = buf[i*dims : i*dims+dims : i*dims+dims]
	}
	return s, nil
}

// HasVertex reports whether p is a vertex of the structure.
func (s *Structure) HasVertex(p vec.Int) bool {
	return s.VertexIndex(p) >= 0
}

// VertexIndex returns the position of p in V, or -1.
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
// neighbour lies outside the index set. It is pure arithmetic with no
// allocation — the primitive the partitioner and both simulation engines
// resolve dependence arcs with.
func (s *Structure) NeighborIndex(vi int, d vec.Int) int {
	if s.rect != nil {
		return s.rect.neighborOf(s.V[vi], vi, d)
	}
	return s.rows.find(s.V[vi], d)
}

// Edge is a dependence arc u → v (v depends on u) labelled with the
// dependence vector index into D.
type Edge struct {
	From, To vec.Int
	Dep      int
}

// ForEachEdge visits every dependence arc of the structure: for each vertex
// u and dependence d ∈ D, the arc u → u+d when u+d is also a vertex.
func (s *Structure) ForEachEdge(visit func(Edge)) {
	s.ForEachEdgeIdx(func(ui, vi, di int) {
		visit(Edge{From: s.V[ui], To: s.V[vi], Dep: di})
	})
}

// ForEachEdgeIdx visits every dependence arc by vertex index: ui → vi along
// D[di]. This is the allocation-free form edge statistics run on;
// callers needing coordinates use ForEachEdge.
func (s *Structure) ForEachEdgeIdx(visit func(ui, vi, di int)) {
	for ui := range s.V {
		for di, d := range s.D {
			if vi := s.NeighborIndex(ui, d); vi >= 0 {
				visit(ui, vi, di)
			}
		}
	}
}

// EdgeCount returns the total number of dependence arcs (the paper counts
// 33 for loop L1 on a 4×4 index set).
func (s *Structure) EdgeCount() int {
	c := 0
	s.ForEachEdge(func(Edge) { c++ })
	return c
}

// Dim returns the nest depth.
func (s *Structure) Dim() int { return s.Nest.Dims }
