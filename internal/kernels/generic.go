package kernels

import (
	"fmt"

	"repro/internal/loop"
	"repro/internal/vec"
)

// Generic synthesizes an executable kernel over an arbitrary nest and
// uniform dependence matrix. The semantics are deterministic pseudo-random
// arithmetic — each index point mixes its inputs with seed- and
// position-dependent coefficients — so any partitioning/mapping of any
// uniform loop can be executed concurrently and verified bit-for-bit
// against the sequential reference. This is the engine behind the
// randomized whole-pipeline tests.
//
// Statements are synthesized to make the dependence analyzer derive
// exactly `deps`: a single pipelined variable per dependence vector.
func Generic(name string, nest *loop.Nest, deps []vec.Int, pi vec.Int, seed uint64) *Kernel {
	if len(deps) == 0 {
		panic("kernels: Generic needs at least one dependence")
	}
	for _, d := range deps {
		if !d.LexPositive() {
			panic(fmt.Sprintf("kernels: Generic dependence %v must be lexicographically positive", d))
		}
	}
	// Build accesses so Nest.Dependences() rederives deps: for each d, a
	// variable v_i written at offset 0 and read at offset −d.
	nest.Stmts = nil
	for i, d := range deps {
		v := fmt.Sprintf("v%d", i)
		nest.Stmts = append(nest.Stmts, loop.Stmt{
			Label:  v + "-pipe",
			Writes: []loop.Access{{Var: v, Offset: make(vec.Int, len(d))}},
			Reads:  []loop.Access{{Var: v, Offset: d.Scale(-1)}},
			Ops:    1,
		})
	}

	// Deterministic coefficients per channel.
	g := &prng{s: seed | 1}
	mix := make([]float64, len(deps))
	gain := make([]float64, len(deps))
	for i := range deps {
		mix[i] = g.next()
		gain[i] = 0.5 + 0.25*g.next() // keep |gain| < 1 so values stay bounded
	}
	posHash := func(x vec.Int, dep int) float64 {
		h := seed*2654435761 + uint64(dep)*0x9e3779b97f4a7c15
		for _, c := range x {
			h ^= uint64(c+1024) * 0x100000001b3
			h = (h << 13) | (h >> 51)
		}
		return float64(h%4096)/2048 - 1
	}
	sem := &Semantics{
		Boundary: func(x vec.Int, dep int) float64 {
			return posHash(x, dep)
		},
		Compute: func(x vec.Int, in []float64) []float64 {
			s := posHash(x, len(in))
			for i, v := range in {
				s += mix[i] * v
			}
			out := make([]float64, len(in))
			for i := range in {
				out[i] = gain[i]*s + (1-gain[i])*in[i]
			}
			return out
		},
		data: vectorBytes(mix, gain),
	}
	return &Kernel{Name: name, Nest: nest, Deps: deps, Pi: pi, Sem: sem}
}
