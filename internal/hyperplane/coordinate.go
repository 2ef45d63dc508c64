package hyperplane

import (
	"repro/internal/loop"
	"repro/internal/vec"
)

// Coordinate is the outcome of Lamport's *coordinate method* — the second
// parallelization scheme of his 1974 paper, which the paper's introduction
// contrasts with the hyperplane method. A loop dimension is DOALL when
// every dependence vector has a zero component there; those loops can run
// fully parallel while the remaining dimensions execute sequentially in
// lexicographic order (valid because restricting a lexicographically
// positive vector to the sequential dimensions keeps it lexicographically
// positive).
type Coordinate struct {
	// ParallelDims lists the DOALL dimensions (0-based), ascending.
	ParallelDims []int
	// SequentialDims lists the remaining dimensions, ascending.
	SequentialDims []int
	// Steps is the number of sequential macro-steps: the number of
	// distinct coordinate tuples over the sequential dimensions.
	Steps int64
}

// Applicable reports whether the method extracts any parallelism.
func (c Coordinate) Applicable() bool { return len(c.ParallelDims) > 0 }

// CoordinateMethod analyzes the structure with Lamport's coordinate
// method. For the paper's kernels (matmul, matvec, convolution, …) no
// dimension is dependence-free, so the method degenerates to sequential
// execution — the same observation that motivates the hyperplane method
// and, in turn, the paper's partitioning of hyperplane schedules.
func CoordinateMethod(st *loop.Structure) Coordinate {
	n := st.Dim()
	var c Coordinate
	parallel := make([]bool, n)
	for j := 0; j < n; j++ {
		parallel[j] = true
		for _, d := range st.D {
			if d[j] != 0 {
				parallel[j] = false
				break
			}
		}
	}
	for j := 0; j < n; j++ {
		if parallel[j] {
			c.ParallelDims = append(c.ParallelDims, j)
		} else {
			c.SequentialDims = append(c.SequentialDims, j)
		}
	}
	// Count distinct sequential-coordinate tuples.
	if len(c.SequentialDims) == 0 {
		if st.Len() > 0 {
			c.Steps = 1
		}
		return c
	}
	seen := map[string]bool{}
	st.Points(func(_ int, x vec.Int) bool {
		key := ""
		for _, j := range c.SequentialDims {
			key += "," + itoa(x[j])
		}
		seen[key] = true
		return true
	})
	c.Steps = int64(len(seen))
	return c
}

// itoa is a minimal signed int64 formatter (avoids strconv for this hot
// key-building path).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
