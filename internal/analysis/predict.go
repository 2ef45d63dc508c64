package analysis

import (
	"repro/internal/core"
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
	for u := range t.N {
		to, weight := t.Row(u)
		for i, v := range to {
			if nodeOf[u] != nodeOf[v] {
				pred.SendWords[nodeOf[u]] += weight[i]
			}
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
