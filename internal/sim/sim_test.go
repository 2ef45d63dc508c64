package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/project"
)

// pipeline partitions and maps a kernel onto a dim-cube.
func pipeline(t *testing.T, k *kernels.Kernel, dim int) (*loop.Structure, hyperplane.Schedule, *core.Partitioning, *mapping.Result) {
	t.Helper()
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.NewSchedule(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.MapPartitioning(p, dim, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st, sch, p, m
}

// buildCase runs the full pipeline for a kernel and returns the pieces both
// engines consume.
func buildCase(t *testing.T, name string, size int64, cubeDim int) (*kernels.Kernel, Assignment, hyperplane.Schedule, *core.Partitioning) {
	t.Helper()
	ctor, ok := kernels.Registry[name]
	if !ok {
		t.Fatalf("unknown kernel %q", name)
	}
	k := ctor(size)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.NewSchedule(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Partition(ps, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var a Assignment
	if cubeDim >= 0 {
		m, err := mapping.MapPartitioning(part, cubeDim, mapping.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a = FromMapping(part, m)
	} else {
		a = BlocksAsProcs(part)
	}
	return k, a, sch, part
}

func TestSequentialMakespanIsPureCompute(t *testing.T) {
	k := kernels.MatVec(8)
	st, sch, _, _ := pipeline(t, k, 0)
	p := machine.Params{TCalc: 2, TStart: 100, TComm: 10}
	s, err := Simulate(st, sch, Sequential(st), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := float64(st.Nest.OpsPerIteration()) * float64(len(st.V))
	if math.Abs(s.Makespan-wantOps*p.TCalc) > 1e-9 {
		t.Fatalf("sequential makespan = %v, want %v", s.Makespan, wantOps*p.TCalc)
	}
	if s.Messages != 0 || s.Words != 0 {
		t.Fatalf("sequential run communicated: %d msgs", s.Messages)
	}
}

func TestParallelFasterThanSequentialForCoarseGrain(t *testing.T) {
	k := kernels.MatVec(32)
	st, sch, p, m := pipeline(t, k, 2)
	params := machine.Params{TCalc: 10, TStart: 1, TComm: 1}
	seq, err := Simulate(st, sch, Sequential(st), params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Simulate(st, sch, FromMapping(p, m), params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Makespan >= seq.Makespan {
		t.Fatalf("parallel %v not faster than sequential %v", par.Makespan, seq.Makespan)
	}
}

func TestCommunicationBoundedWithMachineSize(t *testing.T) {
	// The paper's central Table I observation: the critical processor's
	// communication does not grow with N the way computation shrinks — it
	// is governed by the main-diagonal block's boundary, 2(M−1) words. The
	// paper charges exactly that cut; the detailed simulation also sees the
	// critical processor's opposite cut, so the incident word count sits in
	// [2(M−1), 4(M−1)) for every machine size, exactly 2(M−1) at N = 2.
	const m = 64
	k := kernels.MatVec(m)
	var inout []int64
	for _, dim := range []int{1, 2, 3, 4} {
		st, sch, p, mp := pipeline(t, k, dim)
		s, err := Simulate(st, sch, FromMapping(p, mp), machine.Era1991(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		inout = append(inout, s.CriticalInOutWords())
	}
	if inout[0] != 2*(m-1) {
		t.Fatalf("N=2 critical in+out = %d, want 2(M-1) = %d", inout[0], 2*(m-1))
	}
	for i, w := range inout {
		if w < 2*(m-1) || w >= 4*(m-1) {
			t.Fatalf("dim %d: critical in+out words %d outside [2(M-1), 4(M-1)) = [%d,%d)", i+1, w, 2*(m-1), 4*(m-1))
		}
	}
	// Meanwhile computation on the critical processor must fall steeply.
	var ops []int64
	for _, dim := range []int{1, 2, 3, 4} {
		st, sch, p, mp := pipeline(t, k, dim)
		s, err := Simulate(st, sch, FromMapping(p, mp), machine.Era1991(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, s.MaxProcOps)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i] >= ops[i-1] {
			t.Fatalf("critical ops did not decrease with N: %v", ops)
		}
	}
}

func TestMaxProcOpsMatchesAnalyticW(t *testing.T) {
	// For matvec on N procs, the critical processor computes 2W ops with
	// W = Σ_{i=l}^{M} i (§IV).
	const m = 64
	k := kernels.MatVec(m)
	for _, dim := range []int{1, 2, 3} {
		st, sch, p, mp := pipeline(t, k, dim)
		s, err := Simulate(st, sch, FromMapping(p, mp), machine.Unit(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(1) << uint(dim)
		l := (n-2)*m/n + 1
		var w int64
		for i := l; i <= m; i++ {
			w += i
		}
		// Ops per point is 3 in our kernel encoding (x-pipe 1 + y-acc 2),
		// so the critical processor executes 3W abstract ops over W points.
		if s.MaxProcOps != 3*w {
			t.Fatalf("dim %d: MaxProcOps = %d, want %d", dim, s.MaxProcOps, 3*w)
		}
	}
}

func TestDependencesRespected(t *testing.T) {
	// With huge communication cost, makespan must grow: data cannot
	// teleport. Compare against a zero-cost-comm run.
	k := kernels.MatMul(6)
	st, sch, p, m := pipeline(t, k, 2)
	a := FromMapping(p, m)
	cheap, err := Simulate(st, sch, a, machine.Params{TCalc: 1, TStart: 0, TComm: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := Simulate(st, sch, a, machine.Params{TCalc: 1, TStart: 50, TComm: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Makespan <= cheap.Makespan {
		t.Fatalf("expensive comm did not increase makespan: %v <= %v", costly.Makespan, cheap.Makespan)
	}
}

func TestAggregationReducesMessagesNotWords(t *testing.T) {
	k := kernels.MatMul(6)
	st, sch, p, m := pipeline(t, k, 2)
	a := FromMapping(p, m)
	perWord, err := Simulate(st, sch, a, machine.Era1991(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Simulate(st, sch, a, machine.Era1991(), Options{Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Words != perWord.Words {
		t.Fatalf("aggregation changed word count: %d vs %d", agg.Words, perWord.Words)
	}
	if agg.Messages > perWord.Messages {
		t.Fatalf("aggregation increased messages: %d vs %d", agg.Messages, perWord.Messages)
	}
	if agg.Makespan > perWord.Makespan {
		t.Fatalf("aggregation slowed execution: %v vs %v", agg.Makespan, perWord.Makespan)
	}
}

func TestSendRecvBalance(t *testing.T) {
	k := kernels.MatMul(5)
	st, sch, p, m := pipeline(t, k, 2)
	s, err := Simulate(st, sch, FromMapping(p, m), machine.Unit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv int64
	for i := range s.SendWords {
		sent += s.SendWords[i]
		recv += s.RecvWords[i]
	}
	if sent != recv || sent != s.Words {
		t.Fatalf("send/recv imbalance: sent %d recv %d words %d", sent, recv, s.Words)
	}
}

func TestWordsMatchTIGTraffic(t *testing.T) {
	// With one block per processor, interprocessor words must equal the
	// TIG's total traffic exactly.
	k := kernels.MatMul(4)
	st, sch, p, _ := pipeline(t, k, 0)
	tig := core.BuildTIG(p)
	s, err := Simulate(st, sch, BlocksAsProcs(p), machine.Unit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Words != tig.TotalTraffic() {
		t.Fatalf("sim words %d != TIG traffic %d", s.Words, tig.TotalTraffic())
	}
}

func TestHopCostsIncreaseMakespan(t *testing.T) {
	k := kernels.MatMul(6)
	st, sch, p, m := pipeline(t, k, 3)
	a := FromMapping(p, m)
	flat, err := Simulate(st, sch, a, machine.Params{TCalc: 1, TStart: 10, TComm: 1, THop: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hopped, err := Simulate(st, sch, a, machine.Params{TCalc: 1, TStart: 10, TComm: 1, THop: 25}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hopped.Makespan < flat.Makespan {
		t.Fatalf("hop cost reduced makespan: %v < %v", hopped.Makespan, flat.Makespan)
	}
}

func TestSimulateErrors(t *testing.T) {
	k := kernels.MatVec(4)
	st, sch, _, _ := pipeline(t, k, 1)
	if _, err := Simulate(st, sch, Assignment{ProcOf: []int{0}, NumProcs: 1}, machine.Unit(), Options{}); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := Sequential(st)
	bad.NumProcs = 0
	if _, err := Simulate(st, sch, bad, machine.Unit(), Options{}); err == nil {
		t.Fatal("zero processors accepted")
	}
	outOfRange := Sequential(st)
	outOfRange.ProcOf[0] = 5
	if _, err := Simulate(st, sch, outOfRange, machine.Unit(), Options{}); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
	if _, err := Simulate(st, sch, Sequential(st), machine.Params{}, Options{}); err == nil {
		t.Fatal("invalid machine params accepted")
	}
}

func TestBusyPlusSendWithinMakespan(t *testing.T) {
	k := kernels.MatMul(5)
	st, sch, p, m := pipeline(t, k, 2)
	s, err := Simulate(st, sch, FromMapping(p, m), machine.Era1991(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pr := range s.Busy {
		if s.Busy[pr]+s.SendTime[pr] > s.Makespan+1e-9 {
			t.Fatalf("proc %d busy+send %v exceeds makespan %v", pr, s.Busy[pr]+s.SendTime[pr], s.Makespan)
		}
	}
}

func TestLinkContentionNeverSpeedsUp(t *testing.T) {
	k := kernels.MatMul(6)
	st, sch, p, m := pipeline(t, k, 2)
	a := FromMapping(p, m)
	params := machine.Params{TCalc: 1, TStart: 10, TComm: 5}
	free, err := Simulate(st, sch, a, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	contended, err := Simulate(st, sch, a, params, Options{LinkContention: true})
	if err != nil {
		t.Fatal(err)
	}
	if contended.Makespan+1e-9 < free.Makespan {
		t.Fatalf("contention sped up execution: %v < %v", contended.Makespan, free.Makespan)
	}
	// Word accounting is unchanged by contention.
	if contended.Words != free.Words || contended.Messages != free.Messages {
		t.Fatal("contention changed traffic accounting")
	}
}

func TestLinkContentionSerializesSharedLink(t *testing.T) {
	// Hand-built scenario: two source vertices on procs 1 and 2 both feed
	// a consumer chain on proc 0 via routes sharing... use a 2-D loop with
	// deps forcing two messages over the same cube link at the same time.
	// Simpler and fully controlled: same structure simulated with a Route
	// that funnels everything through one shared link, versus direct
	// links. The funnel must be slower.
	k := kernels.MatVec(12)
	st, sch, p, m := pipeline(t, k, 2)
	a := FromMapping(p, m)
	params := machine.Params{TCalc: 1, TStart: 3, TComm: 2}
	direct := a
	direct.Route = func(x, y int) []int { return []int{x, y} }
	dStats, err := Simulate(st, sch, direct, params, Options{LinkContention: true})
	if err != nil {
		t.Fatal(err)
	}
	funnel := a
	// Every remote message crosses the single link (hub-in, hub-out).
	funnel.Route = func(x, y int) []int { return []int{x, 98, 99, y} }
	fStats, err := Simulate(st, sch, funnel, params, Options{LinkContention: true})
	if err != nil {
		t.Fatal(err)
	}
	if fStats.Makespan <= dStats.Makespan {
		t.Fatalf("funnel through one link not slower: %v <= %v", fStats.Makespan, dStats.Makespan)
	}
}

func TestLinkContentionRejectedWithoutRoute(t *testing.T) {
	// LinkContention with no Route used to be silently ignored — an
	// uncontended run masquerading as a contention experiment. It is now a
	// classified caller error.
	k := kernels.MatVec(8)
	st, sch, p, _ := pipeline(t, k, 0)
	a := BlocksAsProcs(p) // no Route
	_, err := Simulate(st, sch, a, machine.Era1991(), Options{LinkContention: true})
	if err == nil {
		t.Fatal("LinkContention without Route accepted")
	}
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("error %v does not wrap ErrBadOptions", err)
	}
}

func TestTimelineSpans(t *testing.T) {
	k := kernels.MatVec(8)
	st, sch, p, m := pipeline(t, k, 1)
	s, err := Simulate(st, sch, FromMapping(p, m), machine.Unit(), Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var compute, send float64
	perProcLast := map[int]float64{}
	for _, sp := range s.Spans {
		if sp.End < sp.Start {
			t.Fatalf("span %+v ends before it starts", sp)
		}
		if sp.End > s.Makespan+1e-9 {
			t.Fatalf("span %+v exceeds makespan %v", sp, s.Makespan)
		}
		// Per-processor spans must be chronological and non-overlapping
		// (the processor does one thing at a time).
		if sp.Start+1e-9 < perProcLast[sp.Proc] {
			t.Fatalf("span %+v overlaps previous activity ending at %v", sp, perProcLast[sp.Proc])
		}
		perProcLast[sp.Proc] = sp.End
		switch sp.Kind {
		case SpanCompute:
			compute += sp.End - sp.Start
		case SpanSend:
			send += sp.End - sp.Start
		}
	}
	var busy, sendT float64
	for pr := range s.Busy {
		busy += s.Busy[pr]
		sendT += s.SendTime[pr]
	}
	if diff := compute - busy; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("span compute %v != busy %v", compute, busy)
	}
	if diff := send - sendT; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("span send %v != send time %v", send, sendT)
	}
	// No timeline requested: no spans.
	s2, err := Simulate(st, sch, FromMapping(p, m), machine.Unit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Spans) != 0 {
		t.Fatal("spans recorded without Timeline option")
	}
}

func TestDeterminism(t *testing.T) {
	k := kernels.MatMul(5)
	st, sch, p, m := pipeline(t, k, 2)
	a := FromMapping(p, m)
	s1, err := Simulate(st, sch, a, machine.Era1991(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Simulate(st, sch, a, machine.Era1991(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan != s2.Makespan || s1.Messages != s2.Messages {
		t.Fatal("simulation not deterministic")
	}
}

// TestCriticalProcCached checks the cached critical processor agrees with a
// fresh scan and that the dependent accessors use it.
func TestCriticalProcCached(t *testing.T) {
	k, a, sch, _ := buildCase(t, "matvec", 8, 2)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(st, sch, a, machine.Era1991(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan := 0
	for p := range s.ProcOps {
		if s.ProcOps[p] > s.ProcOps[scan] {
			scan = p
		}
	}
	if got := s.CriticalProc(); got != scan {
		t.Fatalf("CriticalProc() = %d, scan = %d", got, scan)
	}
	if got := s.CriticalProc(); got != scan {
		t.Fatalf("cached CriticalProc() = %d, scan = %d", got, scan)
	}
	if want := s.SendWords[scan]; s.CriticalCommWords() != want {
		t.Fatalf("CriticalCommWords() = %d, want %d", s.CriticalCommWords(), want)
	}
	if want := s.SendWords[scan] + s.RecvWords[scan]; s.CriticalInOutWords() != want {
		t.Fatalf("CriticalInOutWords() = %d, want %d", s.CriticalInOutWords(), want)
	}
}
