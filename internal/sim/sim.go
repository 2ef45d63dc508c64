// Package sim provides a deterministic event-driven simulation of
// executing a partitioned, mapped nested loop on a message-passing
// multiprocessor with the paper's cost model (§IV): one floating-point
// operation costs t_calc, transmitting k words costs t_start + k·t_comm,
// and sending occupies the sending processor (communication is serialized
// with computation, which is how the paper accounts
// T_exec = 2W·t_calc + (2M−2)(t_start + t_comm) for the critical
// processor).
//
// The simulator executes index points in hyperplane-schedule order subject
// to data arrival: a point may start once every predecessor's value has
// arrived, interprocessor values being delayed by the message time over the
// mapped route. It reports the makespan plus per-processor busy, send, and
// traffic accounting, so the experiments can check both the paper's
// closed-form coefficients and its qualitative claims (communication
// invariant in machine size; comm/comp ratio falling with grain size).
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hyperplane"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/vec"
)

// ErrBadOptions wraps every rejection of a silently-conflicting option
// combination (e.g. LinkContention with a nil Assignment.Route), so
// callers can classify the failure as a caller error without string
// matching.
var ErrBadOptions = errors.New("sim: conflicting options")

// Assignment places every vertex of a computational structure on a
// processor.
type Assignment struct {
	// ProcOf[vi] is the processor of vertex vi (indices into Structure.Vertices()).
	ProcOf []int
	// NumProcs is the processor count.
	NumProcs int
	// Hops returns the route length between two distinct processors; nil
	// means one hop for any remote pair.
	Hops func(a, b int) int
	// Route returns the node sequence (inclusive of endpoints) a message
	// follows; required for Options.LinkContention. nil models an
	// uncontended network.
	Route func(a, b int) []int
}

// FromMapping combines a partitioning and a hypercube mapping into a
// vertex-level assignment with e-cube hop counts.
func FromMapping(p *core.Partitioning, m *mapping.Result) Assignment {
	procOf := p.BlockOf()
	for vi, b := range procOf {
		procOf[vi] = m.NodeOf[b]
	}
	cube := m.Cube
	return Assignment{
		ProcOf:   procOf,
		NumProcs: cube.N,
		Hops:     func(a, b int) int { return cube.Distance(a, b) },
		Route:    cube.Route,
	}
}

// FromMeshMapping combines a partitioning and a mesh mapping into a
// vertex-level assignment with Manhattan hop counts.
func FromMeshMapping(p *core.Partitioning, m *mapping.MeshResult) Assignment {
	procOf := p.BlockOf()
	for vi, b := range procOf {
		procOf[vi] = m.NodeOf[b]
	}
	msh := m.Mesh
	return Assignment{
		ProcOf:   procOf,
		NumProcs: msh.N(),
		Hops:     msh.Distance,
		Route:    msh.Route,
	}
}

// FromDegradedMapping combines a partitioning and a degraded hypercube
// mapping (failed nodes/links remapped and rerouted) into a vertex-level
// assignment with surviving-graph hop counts and routes. Failed nodes
// keep their processor ids but host no vertices.
func FromDegradedMapping(p *core.Partitioning, d *mapping.Degraded) Assignment {
	procOf := p.BlockOf()
	for vi, b := range procOf {
		procOf[vi] = d.NodeOf[b]
	}
	return Assignment{
		ProcOf:   procOf,
		NumProcs: d.Cube.N,
		Hops:     d.Hops,
		Route:    d.Route,
	}
}

// BlocksAsProcs assigns each partitioned block its own processor — the
// pre-mapping ideal the partitioning phase reasons about.
func BlocksAsProcs(p *core.Partitioning) Assignment {
	procOf := p.BlockOf()
	return Assignment{ProcOf: procOf, NumProcs: p.NumBlocks()}
}

// Sequential places everything on one processor.
func Sequential(st *loop.Structure) Assignment {
	return Assignment{ProcOf: make([]int, st.Len()), NumProcs: 1}
}

// Engine selects the simulation implementation.
type Engine int

const (
	// EnginePoint is the original per-index-point event simulation with
	// full predecessor/successor tables — the reference engine.
	EnginePoint Engine = iota
	// EngineBlock is the block-level coarse engine (SimulateBlockLevel):
	// it exploits Lemma 1 — a partitioned block never executes two index
	// points at the same hyperplane step — to schedule one slot per
	// (block, step) from per-processor clocks and a single arrival time
	// per vertex, with no dependency tables and no per-event allocation.
	// It produces bit-identical results to EnginePoint.
	EngineBlock
)

// Options tunes the simulation.
type Options struct {
	// Engine picks the simulation implementation; the zero value is the
	// point-level reference engine.
	Engine Engine
	// Aggregate merges all values a vertex sends to one destination
	// processor into a single message (one t_start, k words). The default
	// false charges every word its own message, the paper's accounting.
	Aggregate bool
	// Timeline records per-processor compute/send spans in Stats.Spans
	// (for Gantt rendering). Costs memory proportional to events.
	Timeline bool
	// LinkContention models store-and-forward links that carry one
	// message at a time: a message occupies every link of its route
	// (Assignment.Route) for k·t_comm + t_hop each, queueing behind
	// earlier traffic. Requires Assignment.Route; the simulation rejects
	// the option (ErrBadOptions) when the assignment has none, because
	// silently falling back to an uncontended network would misreport
	// contention experiments.
	LinkContention bool
	// Faults optionally injects deterministic faults — node crashes, link
	// failures, per-message loss with retries, checkpoint/restart
	// accounting (see internal/fault). nil or an empty schedule is a
	// strict no-op: the fault-free simulation path is byte-for-byte
	// unchanged. Link failures require Assignment.Route.
	Faults *fault.Schedule
}

// Validate rejects option values no engine understands, with actionable
// messages. Simulate calls it on entry; callers building Options from
// external input can call it early to classify the failure as a caller
// error.
func (o Options) Validate() error {
	switch o.Engine {
	case EnginePoint, EngineBlock:
	default:
		return fmt.Errorf("sim: unknown Engine %d (have EnginePoint=%d, EngineBlock=%d)", o.Engine, EnginePoint, EngineBlock)
	}
	// Machine-size-dependent checks (crash node ranges, Route
	// requirements) run in validate once the assignment is known.
	if err := o.Faults.Validate(0); err != nil {
		return err
	}
	return nil
}

// SpanKind distinguishes timeline activities.
type SpanKind int

const (
	// SpanCompute is time spent executing index points.
	SpanCompute SpanKind = iota
	// SpanSend is time the processor spends injecting messages.
	SpanSend
)

// Span is one contiguous activity of a processor.
type Span struct {
	Proc       int
	Kind       SpanKind
	Start, End float64
}

// Stats is the outcome of a simulation.
type Stats struct {
	// Makespan is the completion time of the last index point.
	Makespan float64
	// Busy[p] is processor p's total computation time.
	Busy []float64
	// SendTime[p] is processor p's total time spent sending messages.
	SendTime []float64
	// SendWords and RecvWords count interprocessor words per processor.
	SendWords, RecvWords []int64
	// Messages is the total interprocessor message count.
	Messages int64
	// Words is the total interprocessor word count.
	Words int64
	// ProcOps[p] is processor p's abstract operation count.
	ProcOps []int64
	// MaxProcOps is the largest per-processor operation count (the paper's
	// 2W for matvec).
	MaxProcOps int64
	// Spans is the per-processor activity timeline (only recorded when
	// Options.Timeline is set), in chronological order per processor.
	Spans []Span

	// Crashes counts node crashes triggered by Options.Faults.
	Crashes int
	// Retransmits counts lost message transmissions that were retried.
	Retransmits int64
	// CheckpointTime is the total time processors spent writing
	// checkpoints at hyperplane-step boundaries.
	CheckpointTime float64
	// ReplayTime is the total un-checkpointed work replayed on takeover
	// nodes after crashes.
	ReplayTime float64

	// critical caches CriticalProc()+1; 0 means not yet computed, so the
	// ProcOps scan runs at most once per Stats.
	critical int
}

// MaxSendWords returns the largest per-processor outgoing word count.
func (s *Stats) MaxSendWords() int64 {
	var m int64
	for _, w := range s.SendWords {
		if w > m {
			m = w
		}
	}
	return m
}

// CriticalProc returns the processor with the most computation (the
// paper's critical processor — for matvec, the holder of the main-diagonal
// block). The scan over ProcOps runs once; the result is cached.
func (s *Stats) CriticalProc() int {
	if s.critical > 0 {
		return s.critical - 1
	}
	best := 0
	for p := range s.ProcOps {
		if s.ProcOps[p] > s.ProcOps[best] {
			best = p
		}
	}
	s.critical = best + 1
	return best
}

// CriticalCommWords returns the outgoing word count of the critical
// processor.
func (s *Stats) CriticalCommWords() int64 {
	if len(s.SendWords) == 0 {
		return 0
	}
	return s.SendWords[s.CriticalProc()]
}

// CriticalInOutWords returns the critical processor's total incident
// (sent + received) word count. The paper charges the critical matvec
// processor 2(M−1) words — the traffic incident to the main-diagonal
// block's boundary; the detailed simulation adds the processor's opposite
// cut, so this value lies in [2(M−1), 4(M−1)) for every machine size.
func (s *Stats) CriticalInOutWords() int64 {
	if len(s.SendWords) == 0 {
		return 0
	}
	p := s.CriticalProc()
	return s.SendWords[p] + s.RecvWords[p]
}

// validate checks the simulation inputs shared by both engines, including
// option combinations that only become checkable once the assignment is
// known (Route requirements, crash-node ranges).
func validate(st *loop.Structure, a Assignment, p machine.Params, opt Options) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(a.ProcOf) != st.Len() {
		return fmt.Errorf("sim: assignment covers %d vertices, structure has %d", len(a.ProcOf), st.Len())
	}
	if a.NumProcs <= 0 {
		return errors.New("sim: no processors")
	}
	for vi, pr := range a.ProcOf {
		if pr < 0 || pr >= a.NumProcs {
			return fmt.Errorf("sim: vertex %d on invalid processor %d", vi, pr)
		}
	}
	if opt.LinkContention && a.Route == nil {
		return fmt.Errorf("%w: LinkContention requires Assignment.Route (link queues follow the message path) — map onto a topology (e.g. FromMapping) or disable contention", ErrBadOptions)
	}
	if opt.Faults != nil {
		if err := opt.Faults.Validate(a.NumProcs); err != nil {
			return err
		}
		if len(opt.Faults.LinkFailures) > 0 && a.Route == nil {
			return fmt.Errorf("%w: fault schedule has link failures but Assignment.Route is nil (detours follow the message path) — map onto a topology or drop the link failures", ErrBadOptions)
		}
	}
	return nil
}

// defaultHops is the one-hop-for-any-remote-pair distance function used
// when the assignment supplies none.
func defaultHops(x, y int) int {
	if x == y {
		return 0
	}
	return 1
}

// networkArrivalFunc builds the message-arrival model: when k words
// injected at t0 reach dst. Under link contention each link of the route
// carries one message at a time (reservation follows the deterministic
// simulation order), so both engines produce identical contention queues.
func networkArrivalFunc(a Assignment, p machine.Params, hops func(int, int) int, contend bool) func(t0 float64, src, dst int, k int64) float64 {
	if !contend {
		return func(t0 float64, src, dst int, k int64) float64 {
			return t0 + p.MessageTime(k, hops(src, dst))
		}
	}
	linkFree := map[[2]int]float64{}
	return func(t0 float64, src, dst int, k int64) float64 {
		path := a.Route(src, dst)
		t := t0 + p.TStart
		per := float64(k)*p.TComm + p.THop
		for i := 1; i < len(path); i++ {
			lk := [2]int{path[i-1], path[i]}
			if linkFree[lk] > t {
				t = linkFree[lk]
			}
			t += per
			linkFree[lk] = t
		}
		return t
	}
}

// Simulate runs the event-driven execution with the engine selected in
// Options (the point-level reference engine by default).
func Simulate(st *loop.Structure, sch hyperplane.Schedule, a Assignment, p machine.Params, opt Options) (*Stats, error) {
	return SimulateCtx(context.Background(), st, sch, a, p, opt)
}

// simCheckEvery is how often (in executed index points) the engines poll
// the context, amortizing the cancellation check over the event loop.
const simCheckEvery = 4096

// SimulateCtx is Simulate with cooperative cancellation: the event loop
// polls ctx every simCheckEvery executed points, so a caller's deadline
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
	if opt.Engine == EngineBlock {
		return simulateBlockLevel(ctx, st, sch, a, p, opt)
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

	// Precompute predecessor and successor vertex indices per dependence
	// (-1 when outside the index set). NeighborIndex resolves each arc with
	// stride arithmetic on rectangular nests, so the precompute allocates
	// nothing per entry.
	negD := make([]vec.Int, nD)
	for di, d := range st.D {
		negD[di] = d.Scale(-1)
	}
	pred := make([]int, nV*nD)
	succ := make([]int, nV*nD)
	for vi := range nV {
		for di, d := range st.D {
			pred[vi*nD+di] = st.NeighborIndex(vi, negD[di])
			succ[vi*nD+di] = st.NeighborIndex(vi, d)
		}
	}

	// Execution order: by schedule step, then vertex index (topological
	// because Π·d > 0 strictly).
	order := make([]int, nV)
	steps := make([]int64, nV)
	for i, x := range st.Vertices() {
		order[i] = i
		steps[i] = sch.Step(x)
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := steps[order[i]], steps[order[j]]
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})

	stats := &Stats{
		Busy:      make([]float64, a.NumProcs),
		SendTime:  make([]float64, a.NumProcs),
		SendWords: make([]int64, a.NumProcs),
		RecvWords: make([]int64, a.NumProcs),
	}

	// Fault injection is a strict no-op unless a non-empty schedule is
	// set: fs stays nil and every fault branch below is skipped, leaving
	// the fault-free arithmetic byte-for-byte unchanged.
	var fs *faultState
	if opt.Faults != nil && !opt.Faults.Empty() {
		fs = newFaultState(opt.Faults, a, p, hops, stats)
	}
	networkArrival := networkArrivalFunc(a, p, hops, opt.LinkContention && a.Route != nil)
	if fs != nil {
		networkArrival = fs.arrivalFunc(opt.LinkContention && a.Route != nil)
	}
	clock := make([]float64, a.NumProcs)
	finish := make([]float64, nV)
	// arrival[vi*nD+di] is when the value along dependence di reaches
	// vertex vi; zero when the predecessor is local or outside.
	arrival := make([]float64, nV*nD)
	stats.ProcOps = make([]int64, a.NumProcs)
	procOps := stats.ProcOps

	// prevStep tracks hyperplane-step boundaries for checkpoint hooks; the
	// order is step-sorted, so crossing a boundary fires the same endStep
	// sequence the block engine fires after each step bucket.
	var prevStep int64
	for oi, vi := range order {
		if oi%simCheckEvery == simCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		pr := a.ProcOf[vi]
		if fs != nil {
			for prevStep < steps[vi] {
				fs.endStep(int(prevStep), clock)
				prevStep++
			}
		}
		// Ready once all remote inputs have arrived.
		ready := 0.0
		for di := 0; di < nD; di++ {
			if t := arrival[vi*nD+di]; t > ready {
				ready = t
			}
			if pi := pred[vi*nD+di]; pi >= 0 && a.ProcOf[pi] == pr {
				if finish[pi] > ready {
					ready = finish[pi]
				}
			}
		}
		// exec is the processor that physically runs the slot: pr itself on
		// the fault-free path, pr's takeover node after a crash.
		exec := pr
		start := clock[pr]
		if ready > start {
			start = ready
		}
		if fs != nil {
			var err error
			exec, start, err = fs.beginCompute(pr, ready, opsPerPoint*p.TCalc, clock)
			if err != nil {
				return nil, err
			}
			fs.workSince[exec] += opsPerPoint * p.TCalc
		}
		end := start + opsPerPoint*p.TCalc
		stats.Busy[exec] += opsPerPoint * p.TCalc
		procOps[exec] += int64(opsPerPoint)
		finish[vi] = end
		clock[exec] = end
		if opt.Timeline {
			stats.Spans = append(stats.Spans, Span{Proc: exec, Kind: SpanCompute, Start: start, End: end})
		}

		// Deliver outputs; remote sends occupy the sender.
		type sendItem struct {
			target int // vertex
			dep    int
			proc   int
		}
		var remote []sendItem
		for di := 0; di < nD; di++ {
			si := succ[vi*nD+di]
			if si < 0 {
				continue
			}
			if a.ProcOf[si] != pr {
				remote = append(remote, sendItem{target: si, dep: di, proc: a.ProcOf[si]})
			}
		}
		if len(remote) == 0 {
			continue
		}
		if opt.Aggregate {
			// One message per destination processor.
			byProc := map[int][]sendItem{}
			var procsOrder []int
			for _, s := range remote {
				if _, ok := byProc[s.proc]; !ok {
					procsOrder = append(procsOrder, s.proc)
				}
				byProc[s.proc] = append(byProc[s.proc], s)
			}
			sort.Ints(procsOrder)
			for _, dst := range procsOrder {
				items := byProc[dst]
				k := int64(len(items))
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
				for _, s := range items {
					if arrivalTime > arrival[s.target*nD+s.dep] {
						arrival[s.target*nD+s.dep] = arrivalTime
					}
				}
			}
		} else {
			// The paper's model: every word is its own message.
			for _, s := range remote {
				var arrivalTime float64
				if fs != nil {
					arrivalTime = fs.send(exec, pr, s.proc, 1, clock, networkArrival, opt.Timeline)
				} else {
					sendDone := clock[pr] + p.TStart + p.TComm
					arrivalTime = networkArrival(clock[pr], pr, s.proc, 1)
					if opt.Timeline {
						stats.Spans = append(stats.Spans, Span{Proc: pr, Kind: SpanSend, Start: clock[pr], End: sendDone})
					}
					clock[pr] = sendDone
					stats.SendTime[pr] += p.TStart + p.TComm
					stats.Messages++
					stats.Words++
					stats.SendWords[pr]++
					stats.RecvWords[s.proc]++
				}
				if arrivalTime > arrival[s.target*nD+s.dep] {
					arrival[s.target*nD+s.dep] = arrivalTime
				}
			}
		}
	}

	if fs != nil {
		for last := sch.Steps(); prevStep < last; prevStep++ {
			fs.endStep(int(prevStep), clock)
		}
	}

	for _, c := range clock {
		if c > stats.Makespan {
			stats.Makespan = c
		}
	}
	for _, o := range procOps {
		if o > stats.MaxProcOps {
			stats.MaxProcOps = o
		}
	}
	return stats, nil
}
