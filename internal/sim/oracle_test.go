package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hypercube"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/nestgen"
	"repro/internal/project"
	"repro/internal/vec"
)

// simulatePoint is the point-level reference simulator, kept only as the
// oracle the tests compare Simulate against. It carries the full
// per-vertex machinery Simulate avoids: predecessor/successor tables of
// size |V|·|D|, a per-(vertex, dependence) arrival matrix, per-vertex
// finish times, and a comparison sort of the whole vertex set. Local
// predecessor finish times are checked explicitly rather than dominated
// by the processor clock, so the oracle does not rely on Lemma 1.
func simulatePoint(ctx context.Context, st *loop.Structure, sch hyperplane.Schedule, a Assignment, p machine.Params, opt Options) (*Stats, error) {
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
	st.Points(func(i int, x vec.Int) bool {
		order[i] = i
		steps[i] = sch.Step(x)
		return true
	})
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

// matchOracle runs Simulate and the point oracle on the same inputs,
// requires identical Stats (every Span and fault counter included), and
// returns Simulate's.
func matchOracle(t *testing.T, label string, st *loop.Structure, sch hyperplane.Schedule, a Assignment, p machine.Params, opt Options) *Stats {
	t.Helper()
	got, err := Simulate(st, sch, a, p, opt)
	if err != nil {
		t.Fatalf("%s: Simulate: %v", label, err)
	}
	want, err := simulatePoint(context.Background(), st, sch, a, p, opt)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Simulate and the point oracle differ:\nSimulate %+v\noracle   %+v", label, got, want)
	}
	return got
}

// oracleCase is one nest of the oracle matrix with its schedule and
// projection.
type oracleCase struct {
	name string
	st   *loop.Structure
	sch  hyperplane.Schedule
	ps   *project.Structure
}

func newOracleCase(t *testing.T, name string, st *loop.Structure, pi vec.Int) oracleCase {
	t.Helper()
	sch, err := hyperplane.NewSchedule(st, pi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ps, err := project.Project(st, pi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return oracleCase{name: name, st: st, sch: sch, ps: ps}
}

// oracleAssignments returns every assignment source the simulator is fed
// for one nest: the mapped partitionings (cube dims 0 and 2, a 2×3 mesh,
// a 2-cube with node 1 failed), the unmapped blocks, one processor, and —
// once per nest, at merge factor 1 — the §I baselines folded onto a
// 2-cube. Sources a nest is too small for are left out.
func oracleAssignments(t *testing.T, c oracleCase, merge int64) map[string]Assignment {
	t.Helper()
	part, err := core.Partition(c.ps, core.Options{MergeFactor: merge})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out := map[string]Assignment{
		"blocks":     BlocksAsProcs(part),
		"sequential": Sequential(c.st),
	}
	for _, dim := range []int{0, 2} {
		if m, err := mapping.MapPartitioning(part, dim, mapping.Options{}); err == nil {
			out[fmt.Sprintf("cube%d", dim)] = FromMapping(part, m)
			if dim == 2 {
				if d, _, err := mapping.Degrade(m, nil, []int{1}, nil); err == nil {
					out["degraded"] = FromDegradedMapping(part, d)
				}
			}
		}
	}
	if m, err := mapping.MapPartitioningMesh(part, 2, 3, mapping.Options{}); err == nil {
		out["mesh"] = FromMeshMapping(part, m)
	}
	if merge != 1 {
		return out
	}
	cube := hypercube.New(2)
	fold := func(b *baselines.Blocks) Assignment {
		return Assignment{ProcOf: b.Fold(cube.N), NumProcs: cube.N, Hops: cube.Distance, Route: cube.Route}
	}
	rr, err := baselines.RoundRobin(c.st, cube.N)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := baselines.Independent(c.st)
	if err != nil {
		t.Fatal(err)
	}
	out["round-robin"] = fold(rr)
	out["independent"] = fold(ind)
	out["line-per-block"] = fold(baselines.LinePerBlock(c.ps))
	return out
}

// oracleOptions returns the option rows run on an assignment: the plain
// paper model, aggregation, the timeline, link contention, seeded loss
// with a link failure, and a crash with checkpointing. Rows that need a
// Route or a second in-service processor are left out where there is
// none. baseline is the plain run's makespan, which places the crash.
func oracleOptions(a Assignment, baseline float64) map[string]Options {
	opts := map[string]Options{
		"aggregate": {Aggregate: true},
		"timeline":  {Timeline: true},
	}
	loss := &fault.Schedule{Seed: 5, LossProb: 0.3}
	if a.Route != nil {
		opts["contention"] = Options{LinkContention: true, Aggregate: true, Timeline: true}
		if a.NumProcs > 1 {
			loss.LinkFailures = []fault.LinkFailure{{A: 0, B: 1, T: baseline / 4}}
		}
	}
	opts["loss"] = Options{Faults: loss, Timeline: true}
	online := 0
	for pr := 0; pr < a.NumProcs; pr++ {
		if a.Offline == nil || !a.Offline[pr] {
			online++
		}
	}
	if online > 1 && len(a.ProcOf) > 0 {
		opts["crash"] = Options{Timeline: true, Faults: &fault.Schedule{
			Crashes:    []fault.NodeCrash{{Node: a.ProcOf[len(a.ProcOf)/2], T: baseline / 2}},
			Checkpoint: fault.Checkpoint{EverySteps: 2, Cost: 3, RestartCost: 7},
		}}
	}
	return opts
}

// TestSimulateMatchesPointOracle compares Simulate with the point oracle
// over the whole Stats on every built-in kernel at sizes 4 and 7 and on
// 60 generated nests, at merge factors 1 and 3, for every assignment
// source, three machine parameter sets and every option row.
func TestSimulateMatchesPointOracle(t *testing.T) {
	params := []machine.Params{machine.Era1991(), machine.Unit(), {TCalc: 1, TStart: 10, TComm: 5, THop: 2}}
	check := func(t *testing.T, c oracleCase) {
		for _, merge := range []int64{1, 3} {
			for aname, a := range oracleAssignments(t, c, merge) {
				for _, p := range params {
					label := fmt.Sprintf("%s/merge=%d/%s/%+v", c.name, merge, aname, p)
					base := matchOracle(t, label, c.st, c.sch, a, p, Options{})
					for oname, opt := range oracleOptions(a, base.Makespan) {
						matchOracle(t, label+"/"+oname, c.st, c.sch, a, p, opt)
					}
				}
			}
		}
	}
	t.Run("kernels", func(t *testing.T) {
		for _, name := range kernels.Names() {
			for _, size := range []int64{4, 7} {
				k := kernels.Registry[name](size)
				st, err := k.Structure()
				if err != nil {
					t.Fatal(err)
				}
				check(t, newOracleCase(t, fmt.Sprintf("%s/%d", name, size), st, k.Pi))
			}
		}
	})
	t.Run("nestgen", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		checked := 0
		for trial := 0; checked < 40; trial++ {
			c, ok := nestgen.Draw(rng, trial)
			if !ok {
				continue
			}
			st, err := loop.NewStructure(c.Nest, c.Deps...)
			if err != nil {
				t.Fatal(err)
			}
			check(t, newOracleCase(t, c.Name, st, c.Pi))
			checked++
		}
		// Dependences up to ±2 under the optimal Π, the shape the root
		// package's pipeline fuzz tests draw.
		checked = 0
		for trial := 0; checked < 20; trial++ {
			kind := nestgen.Kinds[trial%len(nestgen.Kinds)]
			nest := nestgen.Nest(rng, kind, 2+rng.Intn(2))
			deps := nestgen.Deps(rng, nest.Dims, 2)
			st, err := loop.NewStructure(nest, deps...)
			if err != nil || st.Len() == 0 {
				continue
			}
			sch, err := hyperplane.FindOptimal(st, 2)
			if err != nil {
				continue
			}
			check(t, newOracleCase(t, fmt.Sprintf("%s-%d D=%v", kind, trial, deps), st, sch.Pi))
			checked++
		}
	})
}

// TestBlockEngineMatchesPointEngineAllKernels runs every built-in kernel at
// size 6, unmapped and mapped onto 2- and 3-cubes, and requires Simulate to
// reproduce the point oracle's whole Stats.
func TestBlockEngineMatchesPointEngineAllKernels(t *testing.T) {
	params := machine.Era1991()
	for _, name := range kernels.Names() {
		for _, cubeDim := range []int{-1, 2, 3} {
			k, a, sch, _ := buildCase(t, name, 6, cubeDim)
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, fmt.Sprintf("%s/dim=%d", name, cubeDim), st, sch, a, params, Options{})
		}
	}
}

// TestBlockEngineMatchesPointEngineOptions exercises the option matrix —
// aggregation, timeline recording, link contention, three parameter sets —
// on mapped kernels where messages genuinely contend for links.
func TestBlockEngineMatchesPointEngineOptions(t *testing.T) {
	for _, name := range []string{"matvec", "matmul", "stencil"} {
		k, a, sch, _ := buildCase(t, name, 8, 2)
		st, err := k.Structure()
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []machine.Params{machine.Era1991(), machine.Unit(), {TCalc: 1, TStart: 10, TComm: 5, THop: 2}} {
			for _, opt := range []Options{
				{},
				{Aggregate: true},
				{Timeline: true},
				{LinkContention: true},
				{Aggregate: true, LinkContention: true, Timeline: true},
			} {
				matchOracle(t, fmt.Sprintf("%s/%+v/%+v", name, params, opt), st, sch, a, params, opt)
			}
		}
	}
}

// TestBlockEngineMergeFactor checks Simulate stays exact when Theorem 1 is
// deliberately relaxed (MergeFactor > 1 puts same-step points in one
// block): slots are ordered by (step, vertex), not by block, so coarsened
// partitionings match the oracle too.
func TestBlockEngineMergeFactor(t *testing.T) {
	k := kernels.Registry["matvec"](16)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	c := newOracleCase(t, "matvec/16", st, k.Pi)
	part, err := core.Partition(c.ps, core.Options{MergeFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "matvec/merge=4", st, c.sch, BlocksAsProcs(part), machine.Era1991(), Options{})
}
