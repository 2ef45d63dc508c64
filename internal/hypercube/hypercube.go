// Package hypercube models the binary n-cube interconnection network the
// paper targets in §IV: N = 2^n identical processors, each with local
// memory, directly connected to the n processors whose addresses differ in
// exactly one bit.
package hypercube

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/ints"
)

// Cube is an n-dimensional hypercube.
type Cube struct {
	// Dim is the cube dimension n.
	Dim int
	// N is the number of processors, 2^n.
	N int
}

// New returns an n-dimensional hypercube. It panics for n < 0 or n > 30.
func New(dim int) Cube {
	if dim < 0 || dim > 30 {
		panic(fmt.Sprintf("hypercube: dimension %d out of range", dim))
	}
	return Cube{Dim: dim, N: 1 << uint(dim)}
}

// FromProcessors returns the smallest cube with at least p processors.
func FromProcessors(p int) Cube {
	if p < 1 {
		panic("hypercube: need at least one processor")
	}
	return New(ints.Log2Ceil(int64(p)))
}

// Valid reports whether node is a legal address.
func (c Cube) Valid(node int) bool { return node >= 0 && node < c.N }

// Distance returns the Hamming distance (hop count of the shortest path)
// between two nodes.
func (c Cube) Distance(a, b int) int {
	if !c.Valid(a) || !c.Valid(b) {
		panic(fmt.Sprintf("hypercube: invalid nodes %d,%d", a, b))
	}
	return bits.OnesCount(uint(a ^ b))
}

// Route returns the e-cube (dimension-ordered) route from src to dst,
// inclusive of both endpoints. The e-cube rule corrects differing address
// bits from the lowest dimension upward, the standard deadlock-free
// oblivious routing on hypercubes.
func (c Cube) Route(src, dst int) []int {
	if !c.Valid(src) || !c.Valid(dst) {
		panic(fmt.Sprintf("hypercube: invalid nodes %d,%d", src, dst))
	}
	path := []int{src}
	cur := src
	for d := 0; d < c.Dim; d++ {
		bit := 1 << uint(d)
		if cur&bit != dst&bit {
			cur ^= bit
			path = append(path, cur)
		}
	}
	return path
}

// String renders the cube briefly.
func (c Cube) String() string { return string(c.AppendString(nil)) }

// AppendString appends c.String() to b.
func (c Cube) AppendString(b []byte) []byte {
	b = strconv.AppendInt(append(b, "hypercube(dim="...), int64(c.Dim), 10)
	b = strconv.AppendInt(append(b, ", N="...), int64(c.N), 10)
	return append(b, ')')
}
