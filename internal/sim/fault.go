// Fault-injection runtime of the simulator. The faultState hooks into
// the event loop at exactly three points — slot start (crash detection
// and takeover), message send (loss retries and link detours), and
// hyperplane-step boundaries (checkpoints) — so a fault schedule replays
// identically in any simulator that fires the hooks in the same
// (step, vertex) order, and the fault-free path stays byte-for-byte
// untouched (a nil or empty schedule is a strict no-op).
package sim

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/machine"
)

// faultState carries the mutable fault-injection state of one simulation
// run. All decisions are deterministic: crash takeover picks the nearest
// not-yet-doomed processor with ties broken by lowest id, loss decisions
// come from a seeded splitmix64 stream consumed in the deterministic send
// order, and link failures are static data.
type faultState struct {
	sch  *fault.Schedule
	p    machine.Params
	a    Assignment
	hops func(a, b int) int
	rng  *fault.RNG

	maxAttempts int
	backoff0    float64 // first retry wait in absolute time units

	// crashT[p] is processor p's crash time (+Inf when it never crashes);
	// down[p] flips when the crash triggers; execOf[p] is then the
	// takeover node (chains resolve through executor).
	crashT []float64
	down   []bool
	execOf []int
	// workSince[p] is the un-checkpointed work time (compute + send) of
	// processor p — exactly what a crash at this moment would lose.
	workSince []float64

	// failedLinks maps a normalized (min, max) link key to its failure
	// time.
	failedLinks map[[2]int]float64

	stats *Stats
}

// newFaultState builds the runtime for a non-empty, pre-validated
// schedule.
func newFaultState(sch *fault.Schedule, a Assignment, p machine.Params, hops func(int, int) int, stats *Stats) *faultState {
	fs := &faultState{
		sch:         sch,
		p:           p,
		a:           a,
		hops:        hops,
		rng:         fault.NewRNG(sch.Seed),
		maxAttempts: sch.MaxAttempts(),
		backoff0:    sch.BackoffStarts() * p.TStart,
		crashT:      make([]float64, a.NumProcs),
		down:        make([]bool, a.NumProcs),
		execOf:      make([]int, a.NumProcs),
		workSince:   make([]float64, a.NumProcs),
		stats:       stats,
	}
	for i := range fs.crashT {
		fs.crashT[i] = math.Inf(1)
		fs.execOf[i] = i
	}
	for _, c := range sch.Crashes {
		fs.crashT[c.Node] = c.T
	}
	// An offline processor counts as crashed before the run, so crash
	// never picks it for takeover (a degraded mapping has no route to
	// it).
	for pr, off := range a.Offline {
		if off {
			fs.crashT[pr] = math.Inf(-1)
		}
	}
	if len(sch.LinkFailures) > 0 {
		fs.failedLinks = make(map[[2]int]float64, len(sch.LinkFailures))
		for _, l := range sch.LinkFailures {
			k := linkKey(l.A, l.B)
			if t, ok := fs.failedLinks[k]; !ok || l.T < t {
				fs.failedLinks[k] = l.T
			}
		}
	}
	return fs
}

// linkKey normalizes an undirected link to (min, max).
func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// linkFailedAt reports whether the (u, v) link is down for a message
// injected at time t.
func (fs *faultState) linkFailedAt(u, v int, t float64) bool {
	ft, ok := fs.failedLinks[linkKey(u, v)]
	return ok && t >= ft
}

// executor resolves the current physical executor of work assigned to
// processor pr, chasing takeover chains.
func (fs *faultState) executor(pr int) int {
	for fs.down[pr] {
		pr = fs.execOf[pr]
	}
	return pr
}

// beginCompute resolves where a compute slot of original processor pr
// runs and when it starts: the executor's clock or the slot's data-ready
// time, whichever is later. A slot that cannot finish before its
// executor's crash time triggers the crash — the executor goes down, its
// un-checkpointed work replays on the takeover node, and the slot retries
// there (chained crashes resolve in the same loop).
func (fs *faultState) beginCompute(pr int, ready, c float64, clock []float64) (int, float64, error) {
	for {
		e := fs.executor(pr)
		start := clock[e]
		if ready > start {
			start = ready
		}
		if start+c <= fs.crashT[e] {
			return e, start, nil
		}
		if err := fs.crash(e, clock); err != nil {
			return 0, 0, err
		}
	}
}

// crash takes executor e down: its blocks migrate to the nearest
// processor that is still up and not doomed to die earlier (ties break to
// the lowest id — on a hypercube with Gray-code placement this is a
// physically adjacent node whenever one survives), and the takeover node
// pays the restart cost plus a replay of e's un-checkpointed work.
func (fs *faultState) crash(e int, clock []float64) error {
	q, best := -1, int(math.MaxInt32)
	for cand := 0; cand < len(clock); cand++ {
		if cand == e || fs.down[cand] || fs.crashT[cand] <= fs.crashT[e] {
			continue
		}
		if d := fs.hops(e, cand); d < best {
			q, best = cand, d
		}
	}
	if q < 0 {
		return fmt.Errorf("sim: node %d crashed at t=%v with no surviving takeover node", e, fs.crashT[e])
	}
	fs.down[e] = true
	fs.execOf[e] = q
	fs.stats.Crashes++

	lost := fs.workSince[e]
	fs.workSince[e] = 0
	restart := fs.sch.Checkpoint.RestartCost
	t := clock[q]
	if ct := fs.crashT[e]; ct > t {
		t = ct
	}
	clock[q] = t + restart + lost
	fs.stats.ReplayTime += lost
	// The replayed work is itself un-checkpointed on the takeover node.
	fs.workSince[q] += restart + lost
	return nil
}

// endStep runs the checkpoint boundary after hyperplane step s: every
// live processor with un-checkpointed work pays the checkpoint cost and
// becomes stable. It runs after each step's slots in the global
// (step, vertex) order.
func (fs *faultState) endStep(s int, clock []float64) {
	ck := fs.sch.Checkpoint
	if ck.EverySteps <= 0 || (s+1)%ck.EverySteps != 0 {
		return
	}
	for pr := range clock {
		if fs.down[pr] || fs.workSince[pr] == 0 {
			continue
		}
		clock[pr] += ck.Cost
		fs.stats.CheckpointTime += ck.Cost
		fs.workSince[pr] = 0
	}
}

// send transmits one logical message of k words from original processor
// src to dst on executor e. Each attempt occupies the sender for
// t_start + k·t_comm; a lost attempt (decided by the seeded stream) adds
// an exponential backoff and retransmits, with the final attempt always
// delivering so the retry policy bounds the total delay. The returned
// arrival time is computed by arrive from the successful attempt's
// injection time.
func (fs *faultState) send(e, src, dst int, k int64, clock []float64, arrive func(t0 float64, src, dst int, k int64) float64, timeline bool) float64 {
	st := fs.stats
	cost := fs.p.TStart + float64(k)*fs.p.TComm
	wait := fs.backoff0
	for attempt := 1; ; attempt++ {
		t0 := clock[e]
		if timeline {
			st.Spans = append(st.Spans, Span{Proc: e, Kind: SpanSend, Start: t0, End: t0 + cost})
		}
		clock[e] = t0 + cost
		st.SendTime[e] += cost
		fs.workSince[e] += cost
		st.Messages++
		st.Words += k
		st.SendWords[e] += k
		if attempt < fs.maxAttempts && fs.sch.LossProb > 0 && fs.rng.Float64() < fs.sch.LossProb {
			st.Retransmits++
			clock[e] += wait
			wait *= 2
			continue
		}
		st.RecvWords[fs.executor(dst)] += k
		return arrive(t0, src, dst, k)
	}
}

// arrivalFunc builds the message-arrival model with link failures applied
// on top of the base network model. Without link failures it delegates to
// the fault-free arrival function unchanged. With them:
//
//   - uncontended: a message whose e-cube route crosses f failed links
//     pays 2f extra store-and-forward traversals of k·t_comm + t_hop each
//     (the shortest hypercube detour around one dead link is 3 hops where
//     the link was 1);
//   - contended: a failed link's per-message service time triples — the
//     3-hop local detour is modeled as a pipeline segment that still
//     serializes with the traffic queued on that path.
func (fs *faultState) arrivalFunc(contend bool) func(t0 float64, src, dst int, k int64) float64 {
	if len(fs.failedLinks) == 0 {
		return networkArrivalFunc(fs.a, fs.p, fs.hops, contend)
	}
	if !contend {
		return func(t0 float64, src, dst int, k int64) float64 {
			t := t0 + fs.p.MessageTime(k, fs.hops(src, dst))
			path := fs.a.Route(src, dst)
			for i := 1; i < len(path); i++ {
				if fs.linkFailedAt(path[i-1], path[i], t0) {
					t += 2 * (float64(k)*fs.p.TComm + fs.p.THop)
				}
			}
			return t
		}
	}
	return contendedArrival(fs.a.Route, fs.p, func(u, v int, t0 float64) float64 {
		if fs.linkFailedAt(u, v, t0) {
			return 3
		}
		return 1
	})
}
