// Package kernels provides the nested-loop kernels used throughout the
// paper — loop L1 (Example 1), matrix multiplication (Example 2),
// matrix–vector multiplication (L4/L5) — plus additional classics
// (convolution, 1-D stencil over time, uniformized transitive closure, a
// discrete cosine transform) in the uniform single-assignment form the
// partitioning method requires.
//
// Each kernel couples the structural description (nest, dependence matrix,
// recommended time function) with executable systolic semantics: every
// index point consumes one value per dependence vector from its
// predecessors (or a boundary input when the predecessor falls outside the
// index set) and produces one value per dependence vector for its
// successors. This is exactly the dataflow of the rewritten loops in the
// paper, and it lets the concurrent executor verify real computations
// against a sequential reference.
package kernels

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/loop"
	"repro/internal/vec"
)

// Semantics describes the per-point computation of a kernel.
type Semantics struct {
	// Boundary supplies the input value arriving along dependence dep at
	// index point x when x − d lies outside the index set.
	Boundary func(x vec.Int, dep int) float64
	// Compute consumes one input per dependence (in[i] arrived along
	// Deps[i]) and produces one output per dependence (out[i] is sent to
	// x + Deps[i]).
	Compute func(x vec.Int, in []float64) []float64

	// data is the heap the closures hold from construction: input
	// vectors, and the wrappers of input matrices built on first read.
	data int64
	// lazy records the input matrices built on first read; nil when the
	// closures read none.
	lazy *lazyInputs
}

// Kernel is a loop nest with dependence structure and optional executable
// semantics.
type Kernel struct {
	Name string
	Nest *loop.Nest
	// Deps is the constant dependence matrix (columns).
	Deps []vec.Int
	// Pi is the recommended hyperplane time function.
	Pi vec.Int
	// Sem is the executable semantics; nil for structure-only kernels.
	Sem *Semantics
}

// RetainedBytes estimates the heap a kernel pins: its struct, its nest,
// its dependence and Π vectors, and its semantics with the input data
// their closures hold. An input matrix built lazily is counted by its
// wrapper until something first reads it (Execute, Verify or a
// sequential run; planning and simulation never do), and with the matrix
// from then on.
func (k *Kernel) RetainedBytes() int64 {
	b := int64(unsafe.Sizeof(*k)) + int64(len(k.Name)) + int64(cap(k.Pi))*8
	b += int64(cap(k.Deps)) * int64(unsafe.Sizeof(vec.Int{}))
	for _, d := range k.Deps {
		b += int64(cap(d)) * 8
	}
	if k.Nest != nil {
		b += k.Nest.RetainedBytes()
	}
	if k.Sem != nil {
		b += int64(unsafe.Sizeof(*k.Sem)) + semClosureBytes + k.Sem.data
		if l := k.Sem.lazy; l != nil {
			b += int64(unsafe.Sizeof(*l)) + l.built.Load()
		}
	}
	return b
}

// semClosureBytes is what a semantics' two closures pin beyond its data:
// their function values and captured variables.
const semClosureBytes = 64

// vectorBytes is the heap input vectors pin.
func vectorBytes(vs ...[]float64) int64 {
	var b int64
	for _, v := range vs {
		b += int64(cap(v)) * 8
	}
	return b
}

// lazyMatrixBytes is what a lazyInputs.matrix pins before its first
// read: the once wrapper and the closures, not the matrix.
const lazyMatrixBytes = 192

// Structure builds the computational structure of the kernel.
func (k *Kernel) Structure() (*loop.Structure, error) {
	return loop.NewStructure(k.Nest, k.Deps...)
}

// StructureCtx builds the computational structure with cooperative
// cancellation of the index-set enumeration (see loop.NewStructureCtx).
func (k *Kernel) StructureCtx(ctx context.Context) (*loop.Structure, error) {
	return loop.NewStructureCtx(ctx, k.Nest, k.Deps...)
}

// ErrUnknown is returned by Lookup for names absent from the Registry.
var ErrUnknown = errors.New("kernels: unknown kernel")

// Lookup instantiates a built-in kernel by name. Unknown names return an
// error wrapping ErrUnknown (matchable with errors.Is); non-positive sizes
// are rejected before the constructor runs.
func Lookup(name string, size int64) (*Kernel, error) {
	ctor, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknown, name, strings.Join(Names(), ", "))
	}
	if size < 1 {
		return nil, fmt.Errorf("kernels: size %d must be positive", size)
	}
	return ctor(size), nil
}

// Result is the full dataflow trace of a kernel execution: for every index
// point, the outputs it produced (one per dependence). Two executions are
// equivalent iff their Results are equal.
type Result struct {
	// Out[pointKey][dep] is the value point pointKey sent along Deps[dep].
	Out map[string][]float64
}

// Equal compares two results exactly.
func (r *Result) Equal(o *Result) bool {
	if len(r.Out) != len(o.Out) {
		return false
	}
	for k, v := range r.Out {
		w, ok := o.Out[k]
		if !ok || len(v) != len(w) {
			return false
		}
		for i := range v {
			if v[i] != w[i] {
				return false
			}
		}
	}
	return true
}

// ExitValues collects the values that leave the index set along dependence
// dep, keyed by the producing point, in lexicographic point order. These
// are the kernel's external outputs (e.g. the finished y[i] of matvec leave
// along d_y at j = M).
func (r *Result) ExitValues(st *loop.Structure, dep int) []float64 {
	vals := []float64{}
	st.Points(func(vi int, p vec.Int) bool {
		if st.NeighborOf(vi, p, st.D[dep]) < 0 {
			vals = append(vals, r.Out[p.Key()][dep])
		}
		return true
	})
	return vals
}

// RunSequential executes the kernel's semantics in lexicographic order
// (valid because all dependence vectors are lexicographically positive) and
// returns the full dataflow trace. It is the reference implementation the
// parallel executor is verified against.
func RunSequential(k *Kernel) (*Result, error) {
	if k.Sem == nil {
		return nil, fmt.Errorf("kernels: %s has no semantics", k.Name)
	}
	st, err := k.Structure()
	if err != nil {
		return nil, err
	}
	res := &Result{Out: make(map[string][]float64, st.Len())}
	in := make([]float64, len(st.D))
	st.Points(func(_ int, p vec.Int) bool {
		for di, d := range st.D {
			pred := p.Sub(d)
			if st.HasVertex(pred) {
				in[di] = res.Out[pred.Key()][di]
			} else {
				in[di] = k.Sem.Boundary(p, di)
			}
		}
		out := k.Sem.Compute(p, in)
		if len(out) != len(st.D) {
			err = fmt.Errorf("kernels: %s Compute returned %d outputs, want %d", k.Name, len(out), len(st.D))
			return false
		}
		res.Out[p.Key()] = append([]float64{}, out...)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// prng is a small deterministic generator for kernel input data so tests
// and benches are reproducible without plumbing seeds everywhere.
type prng struct{ s uint64 }

func (p *prng) next() float64 {
	// xorshift64*; mapped into [-1, 1).
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	v := p.s * 2685821657736338717
	return float64(v>>11)/float64(1<<52) - 1
}

func dataMatrix(seed uint64, rows, cols int) [][]float64 {
	g := &prng{s: seed | 1}
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = g.next()
		}
	}
	return m
}

// lazyInputs records the heap of a kernel's input matrices as their
// first reads build them, for RetainedBytes.
type lazyInputs struct{ built atomic.Int64 }

// matrix returns a function that fills dataMatrix(seed, rows, cols) on
// its first call, adds the matrix's heap to l, and returns the same
// matrix on every later one. Only a kernel's Sem closures read its input
// data, so looking a kernel up and planning it never builds the matrix,
// and a cached plan does not pin it.
func (l *lazyInputs) matrix(seed uint64, rows, cols int) func() [][]float64 {
	return sync.OnceValue(func() [][]float64 {
		m := dataMatrix(seed, rows, cols)
		// The row headers and each row, rounded up to the allocator's
		// 16-byte size classes.
		l.built.Add(int64(rows) * (roundAlloc(24) + roundAlloc(int64(cols)*8)))
		return m
	})
}

// roundAlloc rounds a small allocation of n bytes up to a multiple of 16,
// as the allocator's size classes do.
func roundAlloc(n int64) int64 { return (n + 15) &^ 15 }

func dataVector(seed uint64, n int) []float64 {
	g := &prng{s: seed | 1}
	v := make([]float64, n)
	for i := range v {
		v[i] = g.next()
	}
	return v
}

// --- Loop L1 (Example 1 of the paper) ---

// L1 returns loop (L1) on the (size+1)×(size+1) index set [0,size]².
// Dependences: A carries (0,1) and (1,1), B carries (1,0).
func L1(size int64) *Kernel {
	n := loop.NewRect("L1", []int64{0, 0}, []int64{size, size})
	n.Stmts = []loop.Stmt{
		{
			Label:  "S1",
			Writes: []loop.Access{{Var: "A", Offset: vec.NewInt(1, 1)}},
			Reads:  []loop.Access{{Var: "A", Offset: vec.NewInt(1, 0)}, {Var: "B", Offset: vec.NewInt(0, 0)}},
			Ops:    1,
		},
		{
			Label:  "S2",
			Writes: []loop.Access{{Var: "B", Offset: vec.NewInt(1, 0)}},
			Reads:  []loop.Access{{Var: "A", Offset: vec.NewInt(0, 0)}},
			Ops:    2,
		},
	}
	// Semantics: channel 0 = A along (0,1), channel 1 = B along (1,0),
	// channel 2 = A along (1,1). Boundary values are position-dependent
	// constants; the constant C of S2 is 0.5.
	deps := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	sem := &Semantics{
		Boundary: func(x vec.Int, dep int) float64 {
			return float64(x[0]+1) * 0.25 * float64(dep+1) * (1 + 0.125*float64(x[1]))
		},
		Compute: func(x vec.Int, in []float64) []float64 {
			a := in[0] + in[2]*0.5 + in[1] // A[i+1,j+1] combines the two A inputs and B
			b := in[2]*2 + 0.5             // B[i+1,j] from A[i,j]*2 + C
			return []float64{a, b, a}
		},
	}
	return &Kernel{Name: "l1", Nest: n, Deps: deps, Pi: vec.NewInt(1, 1), Sem: sem}
}

// --- Matrix multiplication (Example 2) ---

// MatMul returns the size×size×size matrix-multiplication kernel in the
// rewritten form of Example 2, with dependence matrix I₃:
// A carries along j (0,1,0), B along i (1,0,0), C accumulates along k (0,0,1).
func MatMul(size int64) *Kernel {
	n := loop.NewRect("matmul", []int64{0, 0, 0}, []int64{size - 1, size - 1, size - 1})
	n.Stmts = []loop.Stmt{
		{
			Label:  "A-pipe",
			Writes: []loop.Access{{Var: "A", Offset: vec.NewInt(0, 0, 0)}},
			Reads:  []loop.Access{{Var: "A", Offset: vec.NewInt(0, -1, 0)}},
		},
		{
			Label:  "B-pipe",
			Writes: []loop.Access{{Var: "B", Offset: vec.NewInt(0, 0, 0)}},
			Reads:  []loop.Access{{Var: "B", Offset: vec.NewInt(-1, 0, 0)}},
		},
		{
			Label:  "C-acc",
			Writes: []loop.Access{{Var: "C", Offset: vec.NewInt(0, 0, 0)}},
			Reads:  []loop.Access{{Var: "C", Offset: vec.NewInt(0, 0, -1)}},
			Ops:    2,
		},
	}
	lazy := new(lazyInputs)
	a := lazy.matrix(101, int(size), int(size))
	b := lazy.matrix(202, int(size), int(size))
	// Channel order matches sorted dependence order:
	// dep0 = (0,0,1) carries C, dep1 = (0,1,0) carries A, dep2 = (1,0,0) carries B.
	deps := []vec.Int{vec.NewInt(0, 0, 1), vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0)}
	sem := &Semantics{
		Boundary: func(x vec.Int, dep int) float64 {
			i, j, k := x[0], x[1], x[2]
			switch dep {
			case 0: // C enters as 0 at k = 0
				return 0
			case 1: // A[i,k] enters at j = 0
				_ = j
				return a()[i][k]
			default: // B[k,j] enters at i = 0
				return b()[k][j]
			}
		},
		Compute: func(x vec.Int, in []float64) []float64 {
			c := in[0] + in[1]*in[2]
			return []float64{c, in[1], in[2]}
		},
		data: 2 * lazyMatrixBytes,
		lazy: lazy,
	}
	k := &Kernel{Name: "matmul", Nest: n, Deps: deps, Pi: vec.NewInt(1, 1, 1), Sem: sem}
	return k
}

// MatMulReference computes A·B directly for verification of the kernel's
// exit values along the C channel.
func MatMulReference(size int64) [][]float64 {
	a := dataMatrix(101, int(size), int(size))
	b := dataMatrix(202, int(size), int(size))
	c := make([][]float64, size)
	for i := range c {
		c[i] = make([]float64, size)
		for j := range c[i] {
			for k := 0; k < int(size); k++ {
				c[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return c
}

// --- Matrix-vector multiplication (L4/L5, §IV) ---

// MatVec returns the M×M matrix–vector kernel in the rewritten form L5:
// x carries along i (1,0), y accumulates along j (0,1).
func MatVec(m int64) *Kernel {
	n := loop.NewRect("matvec", []int64{1, 1}, []int64{m, m})
	n.Stmts = []loop.Stmt{
		{
			Label:  "x-pipe",
			Writes: []loop.Access{{Var: "x", Offset: vec.NewInt(0, 0)}},
			Reads:  []loop.Access{{Var: "x", Offset: vec.NewInt(-1, 0)}},
		},
		{
			Label:  "y-acc",
			Writes: []loop.Access{{Var: "y", Offset: vec.NewInt(0, 0)}},
			Reads:  []loop.Access{{Var: "y", Offset: vec.NewInt(0, -1)}, {Var: "x", Offset: vec.NewInt(0, 0)}},
			Ops:    2,
		},
	}
	lazy := new(lazyInputs)
	a := lazy.matrix(303, int(m)+1, int(m)+1)
	x := dataVector(404, int(m)+1)
	// dep0 = (0,1) carries y; dep1 = (1,0) carries x.
	deps := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0)}
	sem := &Semantics{
		Boundary: func(p vec.Int, dep int) float64 {
			if dep == 0 {
				return 0 // y enters as 0 at j = 1
			}
			return x[p[1]] // x[j] enters at i = 1
		},
		Compute: func(p vec.Int, in []float64) []float64 {
			y := in[0] + a()[p[0]][p[1]]*in[1]
			return []float64{y, in[1]}
		},
		data: lazyMatrixBytes + vectorBytes(x),
		lazy: lazy,
	}
	return &Kernel{Name: "matvec", Nest: n, Deps: deps, Pi: vec.NewInt(1, 1), Sem: sem}
}

// MatVecReference computes y = A·x directly (1-indexed like L4).
func MatVecReference(m int64) []float64 {
	a := dataMatrix(303, int(m)+1, int(m)+1)
	x := dataVector(404, int(m)+1)
	y := make([]float64, m)
	for i := int64(1); i <= m; i++ {
		for j := int64(1); j <= m; j++ {
			y[i-1] += a[i][j] * x[j]
		}
	}
	return y
}

// --- Convolution ---

// Convolution returns the systolic convolution kernel
// y[i] = Σ_j w[j]·x[i−j] over outputs i ∈ [0, n) and taps j ∈ [0, taps):
// y accumulates along (0,1), w flows along (1,0), x flows along (1,1).
// Its dependence matrix matches loop L1's.
func Convolution(n, taps int64) *Kernel {
	nest := loop.NewRect("convolution", []int64{0, 0}, []int64{n - 1, taps - 1})
	nest.Stmts = []loop.Stmt{
		{
			Label:  "acc",
			Writes: []loop.Access{{Var: "y", Offset: vec.NewInt(0, 0)}},
			Reads: []loop.Access{
				{Var: "y", Offset: vec.NewInt(0, -1)},
				{Var: "w", Offset: vec.NewInt(-1, 0)},
				{Var: "x", Offset: vec.NewInt(-1, -1)},
			},
			Ops: 2,
		},
		{
			Label:  "w-pipe",
			Writes: []loop.Access{{Var: "w", Offset: vec.NewInt(0, 0)}},
			Reads:  []loop.Access{{Var: "w", Offset: vec.NewInt(-1, 0)}},
		},
		{
			Label:  "x-pipe",
			Writes: []loop.Access{{Var: "x", Offset: vec.NewInt(0, 0)}},
			Reads:  []loop.Access{{Var: "x", Offset: vec.NewInt(-1, -1)}},
		},
	}
	w := dataVector(505, int(taps))
	x := dataVector(606, int(n+taps))
	// dep0 = (0,1) carries y; dep1 = (1,0) carries w; dep2 = (1,1) carries x.
	deps := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	sem := &Semantics{
		Boundary: func(p vec.Int, dep int) float64 {
			i, j := p[0], p[1]
			switch dep {
			case 0:
				return 0
			case 1:
				return w[j]
			default:
				// x[i−j] enters wherever (i−1, j−1) leaves the set.
				d := i - j
				if d < 0 {
					return 0
				}
				return x[d]
			}
		},
		Compute: func(p vec.Int, in []float64) []float64 {
			y := in[0] + in[1]*in[2]
			return []float64{y, in[1], in[2]}
		},
		data: vectorBytes(w, x),
	}
	return &Kernel{Name: "convolution", Nest: nest, Deps: deps, Pi: vec.NewInt(1, 1), Sem: sem}
}

// ConvolutionReference computes the convolution directly.
func ConvolutionReference(n, taps int64) []float64 {
	w := dataVector(505, int(taps))
	x := dataVector(606, int(n+taps))
	y := make([]float64, n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < taps; j++ {
			if i-j >= 0 {
				y[i] += w[j] * x[i-j]
			}
		}
	}
	return y
}

// --- 1-D stencil over time (Jacobi / SOR sweep) ---

// Stencil returns a 1-D three-point stencil iterated over time:
// u(t,i) = (u(t−1,i−1) + 2·u(t−1,i) + u(t−1,i+1)) / 4,
// dependences {(1,1), (1,0), (1,−1)}. Its natural time function Π = (1,0)
// exercises the r = 1 corner of the partitioning method (the projected
// dependence vectors are already integral).
func Stencil(steps, width int64) *Kernel {
	nest := loop.NewRect("stencil", []int64{0, 0}, []int64{steps - 1, width - 1})
	nest.Stmts = []loop.Stmt{
		{
			Label:  "update",
			Writes: []loop.Access{{Var: "u", Offset: vec.NewInt(0, 0)}},
			Reads: []loop.Access{
				{Var: "u", Offset: vec.NewInt(-1, -1)},
				{Var: "u", Offset: vec.NewInt(-1, 0)},
				{Var: "u", Offset: vec.NewInt(-1, 1)},
			},
			Ops: 4,
		},
	}
	u0 := dataVector(707, int(width))
	// dep0 = (1,-1), dep1 = (1,0), dep2 = (1,1); all carry u.
	deps := []vec.Int{vec.NewInt(1, -1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	boundaryVal := func(t, i int64) float64 {
		if i < 0 || i >= width {
			return 0 // fixed zero walls
		}
		return u0[i]
	}
	sem := &Semantics{
		Boundary: func(p vec.Int, dep int) float64 {
			t, i := p[0], p[1]
			switch dep {
			case 0: // from (t-1, i+1)
				if t == 0 {
					return boundaryVal(t-1, i+1)
				}
				return 0 // i+1 off the right wall
			case 1: // from (t-1, i)
				return boundaryVal(t-1, i)
			default: // from (t-1, i-1)
				if t == 0 {
					return boundaryVal(t-1, i-1)
				}
				return 0 // i-1 off the left wall
			}
		},
		Compute: func(p vec.Int, in []float64) []float64 {
			u := (in[0] + 2*in[1] + in[2]) / 4
			return []float64{u, u, u}
		},
		data: vectorBytes(u0),
	}
	return &Kernel{Name: "stencil", Nest: nest, Deps: deps, Pi: vec.NewInt(1, 0), Sem: sem}
}

// StencilReference runs the stencil directly.
func StencilReference(steps, width int64) []float64 {
	u := dataVector(707, int(width))
	for t := int64(0); t < steps; t++ {
		next := make([]float64, width)
		get := func(i int64) float64 {
			if i < 0 || i >= width {
				return 0
			}
			return u[i]
		}
		for i := int64(0); i < width; i++ {
			next[i] = (get(i+1) + 2*get(i) + get(i-1)) / 4
		}
		u = next
	}
	return u
}

// --- Uniformized transitive closure ---

// Closure returns a pipelined boolean matrix "multiplication" (one
// repeated-squaring step of transitive closure) with the same dependence
// structure as matmul but OR/AND semantics encoded in floats (0/1). The
// paper lists transitive closure among the algorithms that cannot be
// independently partitioned.
func Closure(size int64) *Kernel {
	k := MatMul(size)
	k.Name = "closure"
	k.Nest.Name = "closure"
	lazy := new(lazyInputs)
	adj := lazy.matrix(808, int(size), int(size))
	bit := func(v float64) float64 {
		if v > 0.3 {
			return 1
		}
		return 0
	}
	k.Sem = &Semantics{
		Boundary: func(x vec.Int, dep int) float64 {
			i, j, kk := x[0], x[1], x[2]
			switch dep {
			case 0:
				return 0
			case 1:
				return bit(adj()[i][kk])
			default:
				return bit(adj()[kk][j])
			}
		},
		Compute: func(x vec.Int, in []float64) []float64 {
			c := in[0]
			if in[1] == 1 && in[2] == 1 {
				c = 1
			}
			return []float64{c, in[1], in[2]}
		},
		data: lazyMatrixBytes,
		lazy: lazy,
	}
	return k
}

// ClosureStep builds the boolean-squaring kernel over an explicit 0/1
// adjacency matrix (entries must be exactly 0 or 1): the C channel's exit
// values are the boolean product adj·adj. Iterating
// B ← B ∨ (B·B) with this kernel computes the transitive closure in
// ⌈log₂ n⌉ parallel rounds (see examples/closure).
func ClosureStep(adj [][]float64) *Kernel {
	size := int64(len(adj))
	k := MatMul(size)
	k.Name = "closure-step"
	k.Nest.Name = "closure-step"
	k.Sem = &Semantics{
		Boundary: func(x vec.Int, dep int) float64 {
			i, j, kk := x[0], x[1], x[2]
			switch dep {
			case 0:
				return 0
			case 1:
				return adj[i][kk]
			default:
				return adj[kk][j]
			}
		},
		Compute: func(x vec.Int, in []float64) []float64 {
			c := in[0]
			if in[1] == 1 && in[2] == 1 {
				c = 1
			}
			return []float64{c, in[1], in[2]}
		},
		data: vectorBytes(adj...) + int64(cap(adj))*24,
	}
	return k
}

// ClosureReference computes one boolean-product step directly.
func ClosureReference(size int64) [][]float64 {
	adj := dataMatrix(808, int(size), int(size))
	bit := func(v float64) float64 {
		if v > 0.3 {
			return 1
		}
		return 0
	}
	c := make([][]float64, size)
	for i := range c {
		c[i] = make([]float64, size)
		for j := range c[i] {
			for k := 0; k < int(size); k++ {
				if bit(adj[i][k]) == 1 && bit(adj[k][j]) == 1 {
					c[i][j] = 1
				}
			}
		}
	}
	return c
}

// --- Discrete cosine transform (matvec-shaped) ---

// DCT returns an m-point discrete cosine transform as a matvec-shaped
// systolic kernel: coefficient values are computed in place from the index
// point, the input vector flows along (1,0), partial sums along (0,1).
func DCT(m int64) *Kernel {
	k := MatVec(m)
	k.Name = "dct"
	k.Nest.Name = "dct"
	x := dataVector(909, int(m)+1)
	k.Sem = &Semantics{
		Boundary: func(p vec.Int, dep int) float64 {
			if dep == 0 {
				return 0
			}
			return x[p[1]]
		},
		Compute: func(p vec.Int, in []float64) []float64 {
			i, j := p[0], p[1]
			c := math.Cos(math.Pi / float64(m) * (float64(j) - 0.5) * float64(i-1))
			y := in[0] + c*in[1]
			return []float64{y, in[1]}
		},
		data: vectorBytes(x),
	}
	return k
}

// --- 2-D five-point stencil over time (SOR/Jacobi sweep, 3-nest) ---

// SOR2D returns a 2-D five-point stencil iterated over time — a 3-nested
// loop with five dependence vectors {(1,0,0), (1,±1,0), (1,0,±1)} whose
// natural time function is Π = (1,0,0). All projected dependence vectors
// are integral (r = 1), exercising the degenerate-grouping corner of
// Algorithm 1 in three dimensions, where the projected structure is 2-D
// and two auxiliary/grouping directions are in play.
func SOR2D(steps, width int64) *Kernel {
	nest := loop.NewRect("sor2d", []int64{0, 0, 0}, []int64{steps - 1, width - 1, width - 1})
	reads := []loop.Access{
		{Var: "u", Offset: vec.NewInt(-1, 0, 0)},
		{Var: "u", Offset: vec.NewInt(-1, -1, 0)},
		{Var: "u", Offset: vec.NewInt(-1, 1, 0)},
		{Var: "u", Offset: vec.NewInt(-1, 0, -1)},
		{Var: "u", Offset: vec.NewInt(-1, 0, 1)},
	}
	nest.Stmts = []loop.Stmt{{
		Label:  "update",
		Writes: []loop.Access{{Var: "u", Offset: vec.NewInt(0, 0, 0)}},
		Reads:  reads,
		Ops:    5,
	}}
	lazy := new(lazyInputs)
	u0 := lazy.matrix(1111, int(width), int(width))
	// Dependence channel order (lexicographic): (1,-1,0), (1,0,-1),
	// (1,0,0), (1,0,1), (1,1,0); the value arriving along (1,a,b) comes
	// from grid cell (i−a, j−b) of the previous timestep.
	deps := []vec.Int{
		vec.NewInt(1, -1, 0), vec.NewInt(1, 0, -1), vec.NewInt(1, 0, 0),
		vec.NewInt(1, 0, 1), vec.NewInt(1, 1, 0),
	}
	cell := func(i, j int64) float64 {
		if i < 0 || i >= width || j < 0 || j >= width {
			return 0
		}
		return u0()[i][j]
	}
	sem := &Semantics{
		Boundary: func(p vec.Int, dep int) float64 {
			t, i, j := p[0], p[1], p[2]
			d := deps[dep]
			if t == 0 {
				return cell(i-d[1], j-d[2])
			}
			return 0 // off the walls at later steps
		},
		Compute: func(p vec.Int, in []float64) []float64 {
			u := (in[0] + in[1] + 4*in[2] + in[3] + in[4]) / 8
			out := make([]float64, len(in))
			for i := range out {
				out[i] = u
			}
			return out
		},
		data: lazyMatrixBytes,
		lazy: lazy,
	}
	return &Kernel{Name: "sor2d", Nest: nest, Deps: deps, Pi: vec.NewInt(1, 0, 0), Sem: sem}
}

// SOR2DReference runs the five-point sweep directly and returns the final
// grid flattened row-major.
func SOR2DReference(steps, width int64) []float64 {
	u := dataMatrix(1111, int(width), int(width))
	get := func(g [][]float64, i, j int64) float64 {
		if i < 0 || i >= width || j < 0 || j >= width {
			return 0
		}
		return g[i][j]
	}
	for t := int64(0); t < steps; t++ {
		next := make([][]float64, width)
		for i := int64(0); i < width; i++ {
			next[i] = make([]float64, width)
			for j := int64(0); j < width; j++ {
				next[i][j] = (get(u, i-1, j) + get(u, i, j-1) + 4*get(u, i, j) + get(u, i, j+1) + get(u, i+1, j)) / 8
			}
		}
		u = next
	}
	out := make([]float64, 0, width*width)
	for i := int64(0); i < width; i++ {
		out = append(out, u[i]...)
	}
	return out
}

// --- Triangular iteration space ---

// Triangular returns a kernel over the triangular index set
// {(i,j) | 0 ≤ i < n, 0 ≤ j ≤ i} with dependences {(0,1), (1,1)} and
// synthesized semantics. Non-rectangular index sets stress the boundary
// groups of Algorithm 1 (many groups are partial) and the Step 3/Step 5
// re-seeding path.
func Triangular(n int64) *Kernel {
	nest := &loop.Nest{
		Name:  "triangular",
		Dims:  2,
		Lower: []loop.Affine{loop.Const(0), loop.Const(0)},
		Upper: []loop.Affine{loop.Const(n - 1), {Const: 0, Coeffs: []int64{1, 0}}},
	}
	deps := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 1)}
	return Generic("triangular", nest, deps, vec.NewInt(1, 1), 4242)
}

// Registry maps kernel names to constructors over a single size parameter
// (kernels with two natural parameters use size for both).
var Registry = map[string]func(size int64) *Kernel{
	"l1":          L1,
	"matmul":      MatMul,
	"matvec":      MatVec,
	"convolution": func(s int64) *Kernel { return Convolution(s, s) },
	"stencil":     func(s int64) *Kernel { return Stencil(s, s) },
	"sor2d":       func(s int64) *Kernel { return SOR2D(s, s) },
	"triangular":  Triangular,
	"closure":     Closure,
	"dct":         DCT,
}

// Names returns the registry keys in sorted order.
func Names() []string {
	var out []string
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
