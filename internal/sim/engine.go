package sim

import (
	"context"
	"fmt"

	"repro/internal/hyperplane"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/vec"
)

// Simulate runs the event-driven execution of a partitioned, mapped nest.
//
// Lemma 1 of the paper (§III) says no block ever executes two index points
// at the same hyperplane step, and a processor executes its blocks' step
// slots in schedule order, so a slot's start time is determined by just
// two numbers — the processor clock and the latest remote arrival at the
// vertex. Local predecessor finish times never bind: a local predecessor
// occupies an earlier hyperplane step (Π·d > 0) on the same processor, so
// the processor clock already dominates its finish time. (The processing
// order is by (step, vertex), not by block, so a MergeFactor > 1
// partitioning that puts same-step points in one block stays exact too.)
//
// The simulation therefore schedules one slot per (block, hyperplane
// step): vertices are bucketed by step with a counting pass over
// loop.Structure.Points (no comparison sort, and no vertex list),
// dependence arcs are resolved by index arithmetic (NeighborIndex's
// O(dims) stride decode on a rectangular structure, a successor table
// filled in the counting pass on any other), and the only per-vertex
// state the event loop updates is a single float64 arrival time, with
// no allocation in the hot loop. Every Options knob
// (Aggregate, Timeline, LinkContention, Faults) follows the same
// deterministic event order. The tests compare its whole Stats with a
// point-level reference simulator that keeps full predecessor/successor
// tables.
func Simulate(st *loop.Structure, sch hyperplane.Schedule, a Assignment, p machine.Params, opt Options) (*Stats, error) {
	return SimulateCtx(context.Background(), st, sch, a, p, opt)
}

// simCheckEvery is how often (in executed slots) the simulation polls the
// context, amortizing the cancellation check over the event loop.
const simCheckEvery = 4096

// SimulateCtx is Simulate with cooperative cancellation: the event loop
// polls ctx every simCheckEvery executed slots, so a caller's deadline
// bounds even huge simulations. A nil ctx means context.Background().
func SimulateCtx(ctx context.Context, st *loop.Structure, sch hyperplane.Schedule, a Assignment, p machine.Params, opt Options) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validate(st, a, p, opt); err != nil {
		return nil, err
	}
	hops := a.Hops
	if hops == nil {
		hops = defaultHops
	}

	nV, nD := st.Len(), len(st.D)
	opsPerPoint := float64(st.Nest.OpsPerIteration())
	opsInt := int64(opsPerPoint)
	compute := opsPerPoint * p.TCalc

	// Bucket vertices by hyperplane step with a counting pass. The walk
	// is in lexicographic order, so each bucket keeps ascending vertex ids
	// and the global processing order is the (step, vertex) order. A
	// rectangular structure resolves a successor from its id alone; any
	// other resolves them here, with the point in hand, into succ.
	nSteps := int(sch.Steps())
	counts := make([]int, nSteps+1)
	stepOf := make([]int32, nV)
	var succ []int32
	if !st.Rectangular() {
		succ = make([]int32, nV*nD)
	}
	var err error
	st.Points(func(vi int, x vec.Int) bool {
		s := int(sch.Step(x))
		if s < 0 || s >= nSteps {
			err = fmt.Errorf("sim: vertex %v at step %d outside schedule [0, %d)", x, s, nSteps)
			return false
		}
		stepOf[vi] = int32(s)
		counts[s+1]++
		if succ != nil {
			for di, d := range st.D {
				succ[vi*nD+di] = int32(st.NeighborOf(vi, x, d))
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for s := 0; s < nSteps; s++ {
		counts[s+1] += counts[s]
	}
	bucket := make([]int32, nV)
	fill := make([]int, nSteps)
	copy(fill, counts[:nSteps])
	for vi := range nV {
		s := stepOf[vi]
		bucket[fill[s]] = int32(vi)
		fill[s]++
	}

	stats := &Stats{
		Busy:      make([]float64, a.NumProcs),
		SendTime:  make([]float64, a.NumProcs),
		SendWords: make([]int64, a.NumProcs),
		RecvWords: make([]int64, a.NumProcs),
		ProcOps:   make([]int64, a.NumProcs),
	}
	// Fault injection is a strict no-op unless a non-empty schedule is
	// set: fs stays nil and every fault branch below is skipped, leaving
	// the fault-free arithmetic byte-for-byte unchanged. The fault hooks
	// run at fixed points of the global (step, vertex) order, so a fixed
	// seed reproduces identical fault behavior.
	var fs *faultState
	if opt.Faults != nil && !opt.Faults.Empty() {
		fs = newFaultState(opt.Faults, a, p, hops, stats)
	}
	networkArrival := networkArrivalFunc(a, p, hops, opt.LinkContention && a.Route != nil)
	if fs != nil {
		networkArrival = fs.arrivalFunc(opt.LinkContention && a.Route != nil)
	}

	clock := make([]float64, a.NumProcs)
	// arrival[vi] is the latest remote-input arrival at vertex vi:
	// readiness only ever takes the maximum over the dependences, so one
	// running maximum stands in for an arrival per (vertex, dependence).
	arrival := make([]float64, nV)

	// Scratch for remote successors of one slot (at most |D| entries),
	// reused across the whole run.
	remoteSucc := make([]int32, 0, nD)
	remoteProc := make([]int32, 0, nD)

	executed := 0
	for s := 0; s < nSteps; s++ {
		for _, v := range bucket[counts[s]:counts[s+1]] {
			if executed++; executed%simCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			vi := int(v)
			pr := a.ProcOf[vi]
			// Execute the (block, step) slot: start at the processor clock
			// or the latest remote arrival, whichever is later. Under fault
			// injection the slot runs on pr's takeover node (exec) once pr
			// has crashed; a local predecessor's finish time still never
			// binds because the takeover clock is advanced past the crash
			// time plus the replayed work.
			exec := pr
			start := clock[pr]
			if t := arrival[vi]; t > start {
				start = t
			}
			if fs != nil {
				var err error
				exec, start, err = fs.beginCompute(pr, arrival[vi], compute, clock)
				if err != nil {
					return nil, err
				}
				fs.workSince[exec] += compute
			}
			end := start + compute
			stats.Busy[exec] += compute
			stats.ProcOps[exec] += opsInt
			clock[exec] = end
			if opt.Timeline {
				stats.Spans = append(stats.Spans, Span{Proc: exec, Kind: SpanCompute, Start: start, End: end})
			}

			// Collect remote successors in dependence order.
			remoteSucc = remoteSucc[:0]
			remoteProc = remoteProc[:0]
			for di, d := range st.D {
				var si int
				if succ != nil {
					si = int(succ[vi*nD+di])
				} else {
					si = st.NeighborIndex(vi, d)
				}
				if si < 0 || a.ProcOf[si] == pr {
					continue
				}
				remoteSucc = append(remoteSucc, int32(si))
				remoteProc = append(remoteProc, int32(a.ProcOf[si]))
			}
			if len(remoteSucc) == 0 {
				continue
			}
			if opt.Aggregate {
				// One message per destination processor, destinations in
				// ascending processor order. Insertion sort over ≤ |D|
				// pairs.
				for i := 1; i < len(remoteProc); i++ {
					for j := i; j > 0 && remoteProc[j-1] > remoteProc[j]; j-- {
						remoteProc[j-1], remoteProc[j] = remoteProc[j], remoteProc[j-1]
						remoteSucc[j-1], remoteSucc[j] = remoteSucc[j], remoteSucc[j-1]
					}
				}
			}
			// One message per destination group: the run of successors on
			// one processor under Aggregate, otherwise each word alone in
			// dependence order (the paper's model).
			for i := 0; i < len(remoteProc); {
				dst := int(remoteProc[i])
				j := i + 1
				for opt.Aggregate && j < len(remoteProc) && int(remoteProc[j]) == dst {
					j++
				}
				k := int64(j - i)
				var arrivalTime float64
				if fs != nil {
					arrivalTime = fs.send(exec, pr, dst, k, clock, networkArrival, opt.Timeline)
				} else {
					sendDone := clock[pr] + p.TStart + float64(k)*p.TComm
					arrivalTime = networkArrival(clock[pr], pr, dst, k)
					if opt.Timeline {
						stats.Spans = append(stats.Spans, Span{Proc: pr, Kind: SpanSend, Start: clock[pr], End: sendDone})
					}
					clock[pr] = sendDone
					stats.SendTime[pr] += p.TStart + float64(k)*p.TComm
					stats.Messages++
					stats.Words += k
					stats.SendWords[pr] += k
					stats.RecvWords[dst] += k
				}
				for ; i < j; i++ {
					si := remoteSucc[i]
					if arrivalTime > arrival[si] {
						arrival[si] = arrivalTime
					}
				}
			}
		}
		if fs != nil {
			fs.endStep(s, clock)
		}
	}

	for _, c := range clock {
		if c > stats.Makespan {
			stats.Makespan = c
		}
	}
	for _, o := range stats.ProcOps {
		if o > stats.MaxProcOps {
			stats.MaxProcOps = o
		}
	}
	return stats, nil
}
