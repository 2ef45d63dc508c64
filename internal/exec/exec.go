// Package exec executes a partitioned nested loop for real, with one
// goroutine per processor and Go channels as the message-passing fabric —
// the repository's stand-in for the paper's hypercube multicomputer.
//
// Every processor owns the index points of the blocks mapped to it and
// walks them in hyperplane-schedule order. Inputs produced on the same
// processor are read from local memory; inputs produced remotely arrive as
// messages on the processor's inbox channel. Inboxes are buffered with the
// exact expected message count, so sends never block and the execution is
// deadlock-free regardless of scheduling. The full dataflow trace is
// returned and can be compared bit-for-bit against the sequential
// reference (kernels.RunSequential) to verify that partitioning + mapping
// preserve the loop's semantics.
package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
)

// message carries one value along one dependence edge between processors.
type message struct {
	target int // vertex index of the consumer
	dep    int
	value  float64
}

// Stats summarizes a concurrent run.
type Stats struct {
	// Messages is the total number of interprocessor values sent.
	Messages int64
	// PointsPerProc[p] is the number of index points processor p executed.
	PointsPerProc []int64
}

// Run executes the kernel concurrently on numProcs processors, vertex vi
// on processor procOf[vi], and returns the dataflow trace plus run
// statistics.
func Run(k *kernels.Kernel, st *loop.Structure, procOf []int, numProcs int) (*kernels.Result, *Stats, error) {
	if k.Sem == nil {
		return nil, nil, fmt.Errorf("exec: kernel %s has no semantics", k.Name)
	}
	// The per-processor execution order follows k.Pi; an invalid time
	// function would break the topological order and deadlock a processor
	// waiting on a value produced later in its own sequence.
	if err := hyperplane.Check(k.Pi, st.D); err != nil {
		return nil, nil, fmt.Errorf("exec: kernel %s: %w", k.Name, err)
	}
	if len(procOf) != st.Len() {
		return nil, nil, fmt.Errorf("exec: placement covers %d vertices, structure has %d", len(procOf), st.Len())
	}
	if numProcs <= 0 {
		return nil, nil, errors.New("exec: no processors")
	}
	for vi, pr := range procOf {
		if pr < 0 || pr >= numProcs {
			return nil, nil, fmt.Errorf("exec: vertex %d on invalid processor %d", vi, pr)
		}
	}

	nD := len(st.D)
	V := st.Vertices()

	// Pre-compute, per processor: owned vertices in schedule order, and the
	// exact number of remote inputs (to size inbox buffers so sends never
	// block).
	owned := make([][]int, numProcs)
	inbound := make([]int, numProcs)
	for vi := range V {
		owned[procOf[vi]] = append(owned[procOf[vi]], vi)
	}
	timeOf := func(vi int) int64 { return k.Pi.Dot(V[vi]) }
	for pr := range owned {
		sort.Slice(owned[pr], func(a, b int) bool {
			ta, tb := timeOf(owned[pr][a]), timeOf(owned[pr][b])
			if ta != tb {
				return ta < tb
			}
			return owned[pr][a] < owned[pr][b]
		})
	}
	st.ForEachEdge(func(e loop.Edge) {
		from := st.VertexIndex(e.From)
		to := st.VertexIndex(e.To)
		if procOf[from] != procOf[to] {
			inbound[procOf[to]]++
		}
	})

	inbox := make([]chan message, numProcs)
	for pr := range inbox {
		inbox[pr] = make(chan message, inbound[pr])
	}

	results := make([]map[string][]float64, numProcs)
	msgCounts := make([]int64, numProcs)
	var wg sync.WaitGroup
	for pr := 0; pr < numProcs; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			local := make(map[int][]float64, len(owned[pr]))
			remote := make(map[int64]float64, inbound[pr])
			out := make(map[string][]float64, len(owned[pr]))
			in := make([]float64, nD)
			for _, vi := range owned[pr] {
				x := V[vi]
				for di, d := range st.D {
					pred := x.Sub(d)
					pi := st.VertexIndex(pred)
					switch {
					case pi < 0:
						in[di] = k.Sem.Boundary(x, di)
					case procOf[pi] == pr:
						in[di] = local[pi][di]
					default:
						key := int64(vi)*int64(nD) + int64(di)
						for {
							if v, ok := remote[key]; ok {
								in[di] = v
								delete(remote, key)
								break
							}
							m := <-inbox[pr]
							remote[int64(m.target)*int64(nD)+int64(m.dep)] = m.value
						}
					}
				}
				vals := k.Sem.Compute(x, in)
				stored := append([]float64{}, vals...)
				local[vi] = stored
				out[x.Key()] = stored
				for di, d := range st.D {
					succ := x.Add(d)
					si := st.VertexIndex(succ)
					if si < 0 || procOf[si] == pr {
						continue
					}
					inbox[procOf[si]] <- message{target: si, dep: di, value: vals[di]}
					msgCounts[pr]++
				}
			}
			results[pr] = out
		}(pr)
	}
	wg.Wait()

	res := &kernels.Result{Out: make(map[string][]float64, st.Len())}
	stats := &Stats{PointsPerProc: make([]int64, numProcs)}
	for pr, m := range results {
		for k, v := range m {
			res.Out[k] = v
		}
		stats.PointsPerProc[pr] = int64(len(owned[pr]))
		stats.Messages += msgCounts[pr]
	}
	return res, stats, nil
}
