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
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
)

// ErrBadOptions wraps every rejection of a silently-conflicting option
// combination (e.g. LinkContention with a nil Assignment.Route), so
// callers can classify the failure as a caller error without string
// matching.
var ErrBadOptions = errors.New("sim: conflicting options")

// Assignment places every vertex of a computational structure on a
// processor.
type Assignment struct {
	// ProcOf[vi] is the processor of vertex vi (positions in Structure.Points).
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
	// Offline[p] marks a processor that is out of service for the whole
	// run: it hosts no vertices, and a crashed node's work never moves to
	// it. nil means every processor is in service.
	Offline []bool
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
// keep their processor ids but host no vertices; they and any survivor
// the failures cut off from the block hosts are Offline, since Hops and
// Route have no path to them.
func FromDegradedMapping(p *core.Partitioning, d *mapping.Degraded) Assignment {
	procOf := p.BlockOf()
	for vi, b := range procOf {
		procOf[vi] = d.NodeOf[b]
	}
	offline := append([]bool(nil), d.Failed...)
	if len(d.NodeOf) > 0 {
		// Degrade keeps the block hosts mutually reachable, so one host
		// identifies their component of the surviving graph.
		host := d.NodeOf[0]
		for n := range offline {
			offline[n] = !d.Reachable(host, n)
		}
	}
	return Assignment{
		ProcOf:   procOf,
		NumProcs: d.Cube.N,
		Hops:     d.Hops,
		Route:    d.Route,
		Offline:  offline,
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

// Options tunes the simulation.
type Options struct {
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

// Validate rejects malformed options with actionable messages. Simulate
// calls it on entry; callers building Options from external input can
// call it early to classify the failure as a caller error.
// Machine-size-dependent checks (crash node ranges, Route requirements)
// run once the assignment is known.
func (o Options) Validate() error {
	return o.Faults.Validate(0)
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

// validate checks the simulation inputs, including option combinations
// that only become checkable once the assignment is known (Route
// requirements, crash-node ranges, a takeover node surviving).
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
	if a.Offline != nil && len(a.Offline) != a.NumProcs {
		return fmt.Errorf("sim: Offline covers %d processors, assignment has %d", len(a.Offline), a.NumProcs)
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
		if a.Offline != nil {
			online, crashing := 0, 0
			for _, off := range a.Offline {
				if !off {
					online++
				}
			}
			for _, c := range opt.Faults.Crashes {
				if !a.Offline[c.Node] {
					crashing++
				}
			}
			if crashing >= online {
				return fmt.Errorf("%w: all %d surviving processors crash — no takeover node survives", fault.ErrInvalid, online)
			}
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
// injected at t0 reach dst. Under link contention it is contendedArrival
// with every link at full speed.
func networkArrivalFunc(a Assignment, p machine.Params, hops func(int, int) int, contend bool) func(t0 float64, src, dst int, k int64) float64 {
	if !contend {
		return func(t0 float64, src, dst int, k int64) float64 {
			return t0 + p.MessageTime(k, hops(src, dst))
		}
	}
	return contendedArrival(a.Route, p, func(u, v int, t0 float64) float64 { return 1 })
}

// contendedArrival is the link-contention arrival model: each link of
// the route carries one message at a time (reservation follows the
// deterministic simulation order), and a message holds link u→v for
// slow(u, v, t0) times its store-and-forward time k·t_comm + t_hop, where
// t0 is its injection time.
func contendedArrival(route func(a, b int) []int, p machine.Params, slow func(u, v int, t0 float64) float64) func(t0 float64, src, dst int, k int64) float64 {
	linkFree := map[[2]int]float64{}
	return func(t0 float64, src, dst int, k int64) float64 {
		path := route(src, dst)
		t := t0 + p.TStart
		per := float64(k)*p.TComm + p.THop
		for i := 1; i < len(path); i++ {
			lk := [2]int{path[i-1], path[i]}
			if linkFree[lk] > t {
				t = linkFree[lk]
			}
			t += per * slow(path[i-1], path[i], t0)
			linkFree[lk] = t
		}
		return t
	}
}
