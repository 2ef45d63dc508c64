package analysis

import (
	"repro/internal/core"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
)

// Prediction is the §IV-style closed-form estimate of parallel execution
// time for an arbitrary partitioned + mapped loop, generalizing the
// paper's matvec analysis: each processor is charged its computation plus
// its outgoing communication, serialized, and the machine finishes with
// the slowest processor:
//
//	T_pred = max_p ( ops_p · t_calc + sendWords_p · (t_start + t_comm) )
//
// Like the paper's model it ignores idle time from dependence stalls, so
// it lower-bounds the event simulation while tracking its shape.
type Prediction struct {
	// Time is the predicted execution time.
	Time float64
	// CriticalProc is the processor attaining the maximum.
	CriticalProc int
	// Ops and SendWords are the per-processor charge components.
	Ops       []int64
	SendWords []int64
}

// Predict computes the prediction for a partitioning whose blocks are
// placed by nodeOf onto numProcs processors (use block IDs themselves for
// the one-block-per-processor ideal).
func Predict(p *core.Partitioning, t *core.TIG, nodeOf []int, numProcs int, params machine.Params) Prediction {
	opsPerPoint := int64(p.PS.Orig.Nest.OpsPerIteration())
	pred := Prediction{
		Ops:       make([]int64, numProcs),
		SendWords: make([]int64, numProcs),
	}
	for b := 0; b < t.N; b++ {
		pred.Ops[nodeOf[b]] += t.Loads[b] * opsPerPoint
	}
	for _, e := range t.Edges {
		if nodeOf[e.From] != nodeOf[e.To] {
			pred.SendWords[nodeOf[e.From]] += e.Weight
		}
	}
	for pr := 0; pr < numProcs; pr++ {
		time := float64(pred.Ops[pr])*params.TCalc +
			float64(pred.SendWords[pr])*(params.TStart+params.TComm)
		if time > pred.Time {
			pred.Time = time
			pred.CriticalProc = pr
		}
	}
	return pred
}

// PredictMapped is Predict for a hypercube mapping.
func PredictMapped(p *core.Partitioning, t *core.TIG, m *mapping.Result, params machine.Params) Prediction {
	return Predict(p, t, m.NodeOf, m.Cube.N, params)
}

// PredictBlocks is Predict for the one-block-per-processor ideal.
func PredictBlocks(p *core.Partitioning, t *core.TIG, params machine.Params) Prediction {
	nodeOf := make([]int, t.N)
	for b := range nodeOf {
		nodeOf[b] = b
	}
	return Predict(p, t, nodeOf, t.N, params)
}

// SequentialTime returns the single-processor execution time of a
// structure.
func SequentialTime(st *loop.Structure, params machine.Params) float64 {
	return float64(st.Len()*st.Nest.OpsPerIteration()) * params.TCalc
}

// OptimalMachineSize finds, over hypercube sizes N = 2^0 … 2^maxDim, the N
// minimizing the paper's matvec T_exec(N) for problem size m. Because the
// communication term is constant in N while computation shrinks, T_exec is
// monotone decreasing and the optimum is the largest feasible machine —
// unless N exceeds M, where the model stops applying; the search therefore
// caps N at M. The more interesting output is the knee: the smallest N
// within `within` (e.g. 1.05 = 5%) of the best time, which quantifies how
// much machine actually pays off at a given grain size.
func OptimalMachineSize(m int64, maxDim int, params machine.Params, within float64) (bestN, kneeN int64) {
	best := MatVecExecTime(m, 1, params)
	bestN = 1
	var sizes []int64
	for d := 0; d <= maxDim; d++ {
		n := int64(1) << uint(d)
		if n > m {
			break
		}
		sizes = append(sizes, n)
		if t := MatVecExecTime(m, n, params); t < best {
			best, bestN = t, n
		}
	}
	kneeN = bestN
	for _, n := range sizes {
		if MatVecExecTime(m, n, params) <= best*within {
			kneeN = n
			break
		}
	}
	return bestN, kneeN
}
