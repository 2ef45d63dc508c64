package vec

import (
	"fmt"
	"strings"

	"repro/internal/rat"
)

// Mat is a dense rational matrix stored row-major.
type Mat struct {
	Rows, Cols int
	a          []rat.Rat
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("vec: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, a: make([]rat.Rat, rows*cols)}
}

// MatFromColumns builds a matrix whose columns are the given rational
// vectors (the paper's mat(D^p) is the matrix of projected dependence
// vectors as columns).
func MatFromColumns(cols ...Rat) *Mat {
	if len(cols) == 0 {
		return NewMat(0, 0)
	}
	n := len(cols[0])
	m := NewMat(n, len(cols))
	for j, c := range cols {
		if len(c) != n {
			panic("vec: ragged columns")
		}
		for i := range c {
			m.Set(i, j, c[i])
		}
	}
	return m
}

// MatFromIntColumns builds a rational matrix from integer column vectors.
func MatFromIntColumns(cols ...Int) *Mat {
	rs := make([]Rat, len(cols))
	for i, c := range cols {
		rs[i] = c.ToRat()
	}
	return MatFromColumns(rs...)
}

// At returns element (i, j).
func (m *Mat) At(i, j int) rat.Rat {
	m.check(i, j)
	return m.a[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v rat.Rat) {
	m.check(i, j)
	m.a[i*m.Cols+j] = v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("vec: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.a, m.a)
	return out
}

// String renders the matrix in aligned rows for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(m.At(i, j).String())
		}
		b.WriteString("]")
		if i < m.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// rref reduces a copy of the matrix to row echelon form and returns the
// reduced copy together with the pivot column of each pivot row.
func (m *Mat) rref() (*Mat, []int) {
	r := m.Clone()
	var pivots []int
	row := 0
	for col := 0; col < r.Cols && row < r.Rows; col++ {
		// Find a pivot in this column at or below `row`.
		p := -1
		for i := row; i < r.Rows; i++ {
			if !r.At(i, col).IsZero() {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		// Swap pivot row into place.
		if p != row {
			for j := 0; j < r.Cols; j++ {
				a, b := r.At(row, j), r.At(p, j)
				r.Set(row, j, b)
				r.Set(p, j, a)
			}
		}
		// Normalize pivot to 1.
		inv := r.At(row, col).Inv()
		for j := col; j < r.Cols; j++ {
			r.Set(row, j, r.At(row, j).Mul(inv))
		}
		// Eliminate the column everywhere else.
		for i := 0; i < r.Rows; i++ {
			if i == row {
				continue
			}
			f := r.At(i, col)
			if f.IsZero() {
				continue
			}
			for j := col; j < r.Cols; j++ {
				r.Set(i, j, r.At(i, j).Sub(f.Mul(r.At(row, j))))
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return r, pivots
}

// Rank returns the rank of the matrix using exact Gaussian elimination.
func (m *Mat) Rank() int {
	_, pivots := m.rref()
	return len(pivots)
}

// LinearlyIndependent reports whether the given rational vectors are
// linearly independent.
func LinearlyIndependent(vs ...Rat) bool {
	if len(vs) == 0 {
		return true
	}
	return MatFromColumns(vs...).Rank() == len(vs)
}

// RankOfIntColumns returns the rank of the matrix whose columns are the
// given integer vectors.
func RankOfIntColumns(cols ...Int) int {
	if len(cols) == 0 {
		return 0
	}
	return MatFromIntColumns(cols...).Rank()
}
