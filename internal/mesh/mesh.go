// Package mesh models a 2-D mesh interconnection network — the extension
// target the paper's conclusion points at ("we can use techniques
// developed for the task allocation on multiprocessor systems to map the
// clusters onto machines"; the paper itself only works out hypercubes).
// Nodes are numbered row-major; routing is dimension-ordered (XY).
package mesh

import "fmt"

// Mesh is an R×C two-dimensional mesh (no wraparound links).
type Mesh struct {
	Rows, Cols int
}

// New returns an R×C mesh. It panics for non-positive dimensions.
func New(rows, cols int) Mesh {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", rows, cols))
	}
	return Mesh{Rows: rows, Cols: cols}
}

// N returns the processor count.
func (m Mesh) N() int { return m.Rows * m.Cols }

// Valid reports whether node is a legal address.
func (m Mesh) Valid(node int) bool { return node >= 0 && node < m.N() }

// Coord returns the (row, col) of a node.
func (m Mesh) Coord(node int) (row, col int) {
	if !m.Valid(node) {
		panic(fmt.Sprintf("mesh: invalid node %d", node))
	}
	return node / m.Cols, node % m.Cols
}

// Node returns the address of (row, col).
func (m Mesh) Node(row, col int) int {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("mesh: invalid coordinate (%d,%d)", row, col))
	}
	return row*m.Cols + col
}

// Distance returns the Manhattan distance between two nodes.
func (m Mesh) Distance(a, b int) int {
	ra, ca := m.Coord(a)
	rb, cb := m.Coord(b)
	return abs(ra-rb) + abs(ca-cb)
}

// Route returns the XY (column-first) route from src to dst inclusive.
func (m Mesh) Route(src, dst int) []int {
	rs, cs := m.Coord(src)
	rd, cd := m.Coord(dst)
	path := []int{src}
	r, c := rs, cs
	for c != cd {
		if c < cd {
			c++
		} else {
			c--
		}
		path = append(path, m.Node(r, c))
	}
	for r != rd {
		if r < rd {
			r++
		} else {
			r--
		}
		path = append(path, m.Node(r, c))
	}
	return path
}

// String renders the mesh briefly.
func (m Mesh) String() string { return fmt.Sprintf("mesh(%dx%d)", m.Rows, m.Cols) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
