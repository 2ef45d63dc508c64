// Package loopmap (module "repro") is a reproduction of Sheu & Tai,
// "Partitioning and Mapping Nested Loops on Multiprocessor Systems" (1991).
//
// It exposes the paper's full pipeline behind one type, Plan:
//
//	nested loop ──hyperplane Π──▶ schedule
//	            ──projection──▶ projected structure Q^p
//	            ──Algorithm 1──▶ partitioned blocks + TIG
//	            ──Algorithm 2──▶ hypercube placement
//	            ──simulate / execute──▶ timings and verified results
//
// A minimal use:
//
//	k := loopmap.NewKernel("matmul", 8)
//	plan, err := loopmap.NewPlan(k, loopmap.PlanOptions{CubeDim: 3})
//	...
//	stats, err := plan.Simulate(loopmap.Era1991(), loopmap.SimOptions{})
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// system inventory); this package re-exports the pieces a downstream user
// needs and wires them together.
package loopmap

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Re-exported types, so typical callers only import this package.
type (
	// Kernel is a loop nest with dependence structure and executable
	// systolic semantics.
	Kernel = kernels.Kernel
	// Nest is the underlying n-nested loop model.
	Nest = loop.Nest
	// Structure is the computational structure Q = (V, D).
	Structure = loop.Structure
	// Schedule is a hyperplane-method time transformation over a structure.
	Schedule = hyperplane.Schedule
	// Projected is the projected structure Q^p.
	Projected = project.Structure
	// Partitioning is Algorithm 1's output.
	Partitioning = core.Partitioning
	// PartitionOptions tunes Algorithm 1.
	PartitionOptions = core.Options
	// TIG is the task interaction graph over partitioned blocks.
	TIG = core.TIG
	// Mapping is Algorithm 2's output.
	Mapping = mapping.Result
	// MapOptions tunes Algorithm 2.
	MapOptions = mapping.Options
	// Params are the machine cost parameters (t_calc, t_start, t_comm).
	Params = machine.Params
	// SimStats is the simulator's accounting.
	SimStats = sim.Stats
	// SimOptions tunes the simulator.
	SimOptions = sim.Options
	// ExecStats is the concurrent executor's accounting.
	ExecStats = exec.Stats
	// ExecResult is a kernel's dataflow trace.
	ExecResult = kernels.Result
	// IntVec is an exact integer vector (index point, dependence, Π).
	IntVec = vec.Int
	// FaultSchedule describes deterministic fault injection for the
	// simulator (SimOptions.Faults): node crashes, link failures,
	// per-message loss with retries, checkpoint/restart costs.
	FaultSchedule = fault.Schedule
	// NodeCrash takes a node offline at a simulated time.
	NodeCrash = fault.NodeCrash
	// LinkFailure takes a physical link offline at a simulated time.
	LinkFailure = fault.LinkFailure
	// RetryPolicy bounds lost-message retransmission.
	RetryPolicy = fault.RetryPolicy
	// CheckpointPolicy is the checkpoint/restart cost model.
	CheckpointPolicy = fault.Checkpoint
	// DegradedMapping is a hypercube mapping with failed nodes/links
	// remapped and rerouted (see Plan.RemapDegraded).
	DegradedMapping = mapping.Degraded
	// DegradationStats quantifies what a degraded remap cost.
	DegradationStats = mapping.DegradationStats
)

// Era1991 returns machine parameters with the paper-era cost ratios
// (t_start ≫ t_comm ≫ t_calc).
func Era1991() Params { return machine.Era1991() }

// UnitParams returns t_calc = t_start = t_comm = 1.
func UnitParams() Params { return machine.Unit() }

// Vec builds an integer vector.
func Vec(vals ...int64) IntVec { return vec.NewInt(vals...) }

// KernelNames lists the built-in kernels.
func KernelNames() []string { return kernels.Names() }

// Sentinel errors classifying plan failures, matchable with errors.Is. A
// service front-end maps them to caller errors (4xx) and treats everything
// else as internal (5xx), without string matching.
var (
	// ErrUnknownKernel is returned by LookupKernel for names absent from
	// the registry.
	ErrUnknownKernel = kernels.ErrUnknown
	// ErrNoSchedule is returned by NewPlan when no valid hyperplane time
	// function exists for the request (an invalid explicit Π, or an
	// exhausted search range).
	ErrNoSchedule = errors.New("loopmap: no valid schedule")
	// ErrCubeTooSmall is returned when the target hypercube cannot hold
	// the partitioning under the requested placement (see
	// MapOptions.Exclusive).
	ErrCubeTooSmall = mapping.ErrCubeTooSmall
	// ErrBadSimOptions classifies silently-conflicting simulation options
	// (e.g. LinkContention without a routed topology).
	ErrBadSimOptions = sim.ErrBadOptions
	// ErrBadFaultSchedule classifies malformed fault schedules.
	ErrBadFaultSchedule = fault.ErrInvalid
	// ErrDegraded classifies impossible degraded remaps (all nodes failed,
	// surviving cube partitioned, addresses out of range).
	ErrDegraded = mapping.ErrDegraded
	// ErrTooLarge classifies iteration spaces whose sizing arithmetic
	// overflows int64 — adversarial bounds are a caller error, detected
	// before enumeration rather than wrapped silently into bogus indexing.
	ErrTooLarge = loop.ErrTooLarge
	// ErrGroupingChoice is returned when PartitionOptions.GroupingChoice
	// names a grouping vector past the structure's nonzero projected
	// dependences.
	ErrGroupingChoice = core.ErrGroupingChoice
)

// LookupKernel instantiates a built-in kernel by name. Unknown names
// return an error wrapping ErrUnknownKernel; non-positive sizes are
// rejected. Use KernelNames to enumerate valid names.
func LookupKernel(name string, size int64) (*Kernel, error) {
	return kernels.Lookup(name, size)
}

// NewKernel instantiates a built-in kernel by name; it panics on unknown
// names or invalid sizes. Prefer LookupKernel when the name comes from
// external input.
func NewKernel(name string, size int64) *Kernel {
	k, err := LookupKernel(name, size)
	if err != nil {
		panic(fmt.Sprintf("loopmap: %v", err))
	}
	return k
}

// ParseKernel parses loop-DSL source (see internal/parser) into an
// executable kernel: flow dependences are derived from the array
// accesses, the optimal time function is found by exhaustive search
// (coefficient bound 3), and the kernel's semantics *interpret the parsed
// statements* — the loop computes its real arithmetic when executed and
// verified, with deterministic seeded inputs for external arrays,
// scalars, and boundaries.
func ParseKernel(name, src string, seed uint64) (*Kernel, error) {
	prog, err := parser.ParseProgram(name, src)
	if err != nil {
		return nil, err
	}
	return buildParsedKernel(prog, seed)
}

// GenerateSPMD compiles loop-DSL source all the way to a standalone
// parallel Go program: parse → derive flow dependences → search the
// optimal Π → Algorithm 1 partitioning → Algorithm 2 mapping onto a
// cubeDim-cube → emit SPMD code (one goroutine per processor, channels as
// links) that verifies itself against sequential execution and prints
// "OK <checksum>".
func GenerateSPMD(name, src string, cubeDim int, seed uint64) (string, error) {
	return GenerateSPMDCtx(context.Background(), name, src, cubeDim, seed)
}

// GenerateSPMDCtx is GenerateSPMD with cooperative cancellation of the
// planning stages (see NewPlanCtx).
func GenerateSPMDCtx(ctx context.Context, name, src string, cubeDim int, seed uint64) (string, error) {
	prog, err := parser.ParseProgram(name, src)
	if err != nil {
		return "", err
	}
	k, err := buildParsedKernel(prog, seed)
	if err != nil {
		return "", err
	}
	plan, err := NewPlanCtx(ctx, k, PlanOptions{CubeDim: cubeDim})
	if err != nil {
		return "", err
	}
	a := plan.assignment()
	return codegen.Generate(prog, plan.Schedule.Pi, a.ProcOf, a.NumProcs, seed)
}

// buildParsedKernel derives channels, searches Π, and builds the
// interpreted kernel for a parsed program.
func buildParsedKernel(prog *parser.Program, seed uint64) (*Kernel, error) {
	_, deps, err := prog.Channels()
	if err != nil {
		return nil, err
	}
	st, err := loop.NewStructure(prog.Nest, deps...)
	if err != nil {
		return nil, err
	}
	sch, err := hyperplane.FindOptimal(st, 3)
	if err != nil {
		return nil, fmt.Errorf("loopmap: %s: %w", prog.Nest.Name, err)
	}
	return prog.BuildKernel(sch.Pi, seed)
}

// PlanOptions configures NewPlan.
type PlanOptions struct {
	// Pi overrides the time function; nil uses the kernel's recommended Π
	// (or an exhaustive search when SearchPi is set).
	Pi IntVec
	// SearchPi finds the optimal Π by exhaustive search with coefficient
	// bound SearchBound (default 2) instead of using the kernel default.
	SearchPi    bool
	SearchBound int64
	// CubeDim is the hypercube dimension for the mapping phase. Negative
	// skips mapping: the plan then treats each block as its own processor.
	CubeDim int
	// Partition tunes Algorithm 1.
	Partition PartitionOptions
	// Mapping tunes Algorithm 2.
	Mapping MapOptions
}

// Validate rejects option combinations NewPlan cannot honor, with
// actionable messages. NewPlan calls it on entry; callers building options
// from external input can call it early to classify the failure as a
// caller error.
func (o PlanOptions) Validate() error {
	if o.SearchBound < 0 {
		return fmt.Errorf("loopmap: negative SearchBound %d (0 means the default bound 2)", o.SearchBound)
	}
	if o.SearchBound > 0 && !o.SearchPi {
		return fmt.Errorf("loopmap: SearchBound %d without SearchPi (set SearchPi, or drop the bound)", o.SearchBound)
	}
	if o.Pi != nil && o.SearchPi {
		return errors.New("loopmap: Pi and SearchPi are mutually exclusive (an explicit Pi pins the time function)")
	}
	if o.Partition.MergeFactor < 0 {
		return fmt.Errorf("loopmap: negative MergeFactor %d (0 or 1 means the paper's exact grouping)", o.Partition.MergeFactor)
	}
	if o.Partition.GroupingChoice < 0 {
		return fmt.Errorf("loopmap: negative GroupingChoice %d (0 means the paper's max-r rule)", o.Partition.GroupingChoice)
	}
	switch o.Mapping.Policy {
	case mapping.RoundRobin, mapping.WidestFirst:
	default:
		return fmt.Errorf("loopmap: unknown mapping policy %d (have RoundRobin=%d, WidestFirst=%d)",
			o.Mapping.Policy, mapping.RoundRobin, mapping.WidestFirst)
	}
	if o.Mapping.Exclusive && o.CubeDim < 0 {
		return errors.New("loopmap: Mapping.Exclusive with negative CubeDim (exclusive placement needs a hypercube; set CubeDim >= 0, or drop Exclusive)")
	}
	return nil
}

// Plan holds the artifacts of the full pipeline for one kernel.
type Plan struct {
	Kernel       *Kernel
	Structure    *Structure
	Schedule     Schedule
	Projected    *Projected
	Partitioning *Partitioning
	TIG          *TIG
	// Mapping is nil when PlanOptions.CubeDim < 0.
	Mapping *Mapping
	// Degraded, when non-nil, overrides Mapping for placement and
	// simulation: blocks of failed nodes live on their takeover nodes and
	// messages route over the surviving cube (see RemapDegraded).
	Degraded *DegradedMapping

	// inputs are Algorithm 1's per-stage inputs the plan was partitioned
	// from, handed on by Stage.
	inputs *core.Stage
	// rec is the recycled memory a transient plan lives in, nil for a
	// kept plan.
	rec *recycled
}

// recycled is the memory of one transient plan: the Plan struct, its
// partitioning and TIG, and its mapping. A nil *recycled builds a kept
// plan, every struct and table allocated at its exact size.
type recycled struct {
	plan Plan
	core core.Tables
	maps mapping.Tables
}

// recycledFree holds transient plans' memory between plans, one per
// transient plan that was live at once, up to recycledKept.
var recycledFree = pool.NewFree[recycled](recycledKept)

const recycledKept = 8

func (r *recycled) newPlan() *Plan {
	if r == nil {
		return new(Plan)
	}
	return &r.plan
}

func (r *recycled) coreTables() *core.Tables {
	if r == nil {
		return nil
	}
	return &r.core
}

func (r *recycled) mapTables() *mapping.Tables {
	if r == nil {
		return nil
	}
	return &r.maps
}

// release hands r to the next transient plan; a nil r is a no-op.
func (r *recycled) release() {
	if r == nil {
		return
	}
	r.core.Reset()
	r.maps.Reset()
	r.plan = Plan{}
	recycledFree.Put(r)
}

// Release hands a transient plan's memory (see Stage.PlanTransientCtx)
// to the next transient plan. Afterwards nothing may read the plan or
// anything read from it — its partitioning, TIG, mapping and their
// tables — on any goroutine, and a plan remapped from it must already be
// released or dropped. It is a no-op on a kept plan, on a copy of a
// transient Plan value and on nil.
func (p *Plan) Release() {
	if p == nil {
		return
	}
	if r := p.rec; r != nil && &r.plan == p {
		r.release()
	}
}

// NewPlan runs schedule → projection → partitioning (→ mapping) on the
// kernel.
func NewPlan(k *Kernel, opt PlanOptions) (*Plan, error) {
	return NewPlanCtx(context.Background(), k, opt)
}

// NewPlanCtx is NewPlan with cooperative cancellation: the expensive
// stages — index-set enumeration and the region-growing sweep — poll ctx
// internally, and every stage boundary checks it, so a caller's deadline
// bounds the whole pipeline. A nil ctx means context.Background().
//
// It is PrepareCtx followed by Stage.PlanCtx.
func NewPlanCtx(ctx context.Context, k *Kernel, opt PlanOptions) (*Plan, error) {
	st, err := PrepareCtx(ctx, k, opt)
	if err != nil {
		return nil, err
	}
	return st.PlanCtx(ctx, opt)
}

// Stage holds the pipeline's Π-stage: the enumerated structure, its
// schedule and the projection onto Π·x = 0. They depend only on the
// kernel and the time function (opt.Pi, SearchPi, SearchBound), never on
// Algorithm 1 or Algorithm 2 options, so plans that differ only in those
// options can be built from one Stage. A Stage is read-only once built:
// any number of goroutines may call PlanCtx on it at once, and they share
// Algorithm 1's per-stage inputs (core.Stage), computed once.
type Stage struct {
	Kernel    *Kernel
	Structure *Structure
	Schedule  Schedule
	Projected *Projected

	inputs *core.Stage
}

// PrepareCtx runs the first half of NewPlanCtx: option validation,
// enumeration, the schedule (or Π search) and the projection. Its errors
// are NewPlanCtx's for those stages. A nil ctx means context.Background().
func PrepareCtx(ctx context.Context, k *Kernel, opt PlanOptions) (*Stage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k == nil {
		return nil, errors.New("loopmap: nil kernel")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	st, err := k.StructureCtx(ctx)
	if err != nil {
		return nil, err
	}
	var sch Schedule
	switch {
	case opt.Pi != nil:
		sch, err = hyperplane.NewSchedule(st, opt.Pi)
	case opt.SearchPi:
		bound := opt.SearchBound
		if bound <= 0 {
			bound = 2
		}
		sch, err = hyperplane.FindOptimalCtx(ctx, st, bound)
	default:
		sch, err = hyperplane.NewSchedule(st, k.Pi)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%w for %s: %w", ErrNoSchedule, k.Name, err)
	}
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		return nil, err
	}
	return &Stage{Kernel: k, Structure: st, Schedule: sch, Projected: ps, inputs: core.NewStage(ps)}, nil
}

// PlanCtx runs the second half of NewPlanCtx on the stage: Algorithm 1,
// the invariant check, the TIG and (for CubeDim >= 0) Algorithm 2. The
// stage fixed the time function, so opt.Pi, SearchPi and SearchBound are
// validated but otherwise ignored. The plan shares the stage's artifacts.
// A nil ctx means context.Background().
func (s *Stage) PlanCtx(ctx context.Context, opt PlanOptions) (*Plan, error) {
	return s.plan(ctx, opt, nil)
}

// PlanTransientCtx is PlanCtx for a plan that is read once and dropped:
// the Plan, its partitioning, TIG and mapping live in recycled memory,
// which Release hands to the next transient plan instead of leaving it
// to the garbage collector. Until then it is an ordinary read-only plan,
// which any number of goroutines may read; one never released is
// collected like a kept plan. Remapping it (Remap, RemapOpts) gives a
// transient plan with recycled memory of its own.
func (s *Stage) PlanTransientCtx(ctx context.Context, opt PlanOptions) (*Plan, error) {
	r := recycledFree.Get()
	p, err := s.plan(ctx, opt, r)
	if err != nil {
		r.release()
		return nil, err
	}
	return p, nil
}

// plan runs PlanCtx, building the plan into r (see recycled).
func (s *Stage) plan(ctx context.Context, opt PlanOptions, r *recycled) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	in := s.inputs
	if in == nil {
		in = core.NewStage(s.Projected)
	}
	part, err := in.PartitionInto(ctx, opt.Partition, r.coreTables())
	if err != nil {
		return nil, err
	}
	if err := core.CheckInvariants(part); err != nil {
		return nil, fmt.Errorf("loopmap: partitioning invariants violated: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := r.newPlan()
	*plan = Plan{
		Kernel:       s.Kernel,
		Structure:    s.Structure,
		Schedule:     s.Schedule,
		Projected:    s.Projected,
		Partitioning: part,
		TIG:          core.BuildTIGInto(part, r.coreTables()),
		inputs:       in,
		rec:          r,
	}
	if opt.CubeDim >= 0 {
		m, err := mapping.MapPartitioningInto(part, opt.CubeDim, opt.Mapping, r.mapTables())
		if err != nil {
			return nil, err
		}
		plan.Mapping = m
	}
	return plan, nil
}

// Compact returns a stage that shares this one's schedule and projection
// but whose structure holds no vertex set (see loop.Structure.Compact).
// Plans built on it, and every call that runs one (Simulate, Execute,
// Verify), walk or index the structure and never build V.
func (s *Stage) Compact() *Stage {
	st := s.Structure.Compact()
	ps := *s.Projected
	ps.Orig = st
	c := &Stage{Kernel: s.Kernel, Structure: st, Schedule: s.Schedule, Projected: &ps}
	if s.inputs != nil {
		c.inputs = s.inputs.WithStructure(&ps)
	}
	return c
}

// Stage returns the Π-stage the plan was built from; PlanCtx on it builds
// plans that differ from this one only in Algorithm 1 and 2 options.
func (p *Plan) Stage() *Stage {
	return &Stage{Kernel: p.Kernel, Structure: p.Structure, Schedule: p.Schedule, Projected: p.Projected, inputs: p.inputs}
}

// Remap returns a plan that shares this plan's structure, schedule,
// projection, partitioning, and TIG but targets a different hypercube
// dimension (negative skips mapping). Enumeration and Algorithm 1 are the
// expensive pipeline stages and depend only on the kernel and Π, so sweeps
// over machine sizes pay them once per (kernel, size) and remap per cube
// dimension. The shared artifacts are read-only in both plans.
func (p *Plan) Remap(cubeDim int) (*Plan, error) {
	return p.RemapOpts(cubeDim, MapOptions{})
}

// RemapOpts is Remap with explicit Algorithm 2 options (e.g. Exclusive
// placement, which fails with ErrCubeTooSmall on an undersized cube).
// The remap of a transient plan (see Stage.PlanTransientCtx) is
// transient too, with recycled memory of its own.
func (p *Plan) RemapOpts(cubeDim int, opt MapOptions) (*Plan, error) {
	var r *recycled
	if p.rec != nil {
		r = recycledFree.Get()
	}
	clone := r.newPlan()
	*clone = *p
	clone.Mapping, clone.Degraded, clone.rec = nil, nil, r
	if cubeDim >= 0 {
		m, err := mapping.MapPartitioningInto(p.Partitioning, cubeDim, opt, r.mapTables())
		if err != nil {
			r.release()
			return nil, err
		}
		clone.Mapping = m
	}
	return clone, nil
}

// RemapDegraded returns a plan that survives the given node failures:
// every dead node's blocks migrate to its nearest healthy node (a
// Gray-code physical neighbour whenever one survives — the adjacency
// Algorithm 2 paid for), and Hops/Route reroute over the surviving cube.
// The shared pipeline artifacts are reused; only the placement changes.
// The returned DegradationStats includes the makespan inflation under the
// paper-era cost model (Era1991 parameters).
//
// Errors wrap ErrDegraded: no mapping phase, all nodes failed, addresses
// out of range, or a surviving cube too partitioned to carry the
// dataflow.
func (p *Plan) RemapDegraded(failedNodes []int) (*Plan, *DegradationStats, error) {
	return p.RemapDegradedTopology(failedNodes, nil)
}

// RemapDegradedTopology is RemapDegraded with failed physical links in
// addition to failed nodes; each link is a node-address pair that must be
// a hypercube edge.
func (p *Plan) RemapDegradedTopology(failedNodes []int, failedLinks [][2]int) (*Plan, *DegradationStats, error) {
	if p.Mapping == nil {
		return nil, nil, fmt.Errorf("%w: plan has no mapping phase (CubeDim < 0)", ErrDegraded)
	}
	d, stats, err := mapping.Degrade(p.Mapping, p.TIG, failedNodes, failedLinks)
	if err != nil {
		return nil, nil, err
	}
	clone := *p
	clone.Degraded, clone.rec = d, nil
	params := machine.Era1991()
	base, err := p.Simulate(params, SimOptions{})
	if err != nil {
		return nil, nil, err
	}
	degr, err := clone.Simulate(params, SimOptions{})
	if err != nil {
		return nil, nil, err
	}
	if base.Makespan > 0 {
		stats.MakespanInflation = degr.Makespan / base.Makespan
	}
	return &clone, stats, nil
}

// assignment returns the simulator assignment of the plan.
func (p *Plan) assignment() sim.Assignment {
	if p.Degraded != nil {
		return sim.FromDegradedMapping(p.Partitioning, p.Degraded)
	}
	if p.Mapping != nil {
		return sim.FromMapping(p.Partitioning, p.Mapping)
	}
	return sim.BlocksAsProcs(p.Partitioning)
}

// Procs returns the number of processors the plan targets.
func (p *Plan) Procs() int {
	switch {
	case p.Degraded != nil:
		return p.Degraded.Cube.N
	case p.Mapping != nil:
		return p.Mapping.Cube.N
	}
	return p.Partitioning.NumBlocks()
}

// Simulate runs the event-driven cost simulation of the planned execution.
func (p *Plan) Simulate(params Params, opt SimOptions) (*SimStats, error) {
	return sim.Simulate(p.Structure, p.Schedule, p.assignment(), params, opt)
}

// SimulateCtx is Simulate with cooperative cancellation: the simulation
// event loop polls ctx, so a caller's deadline bounds even huge runs.
func (p *Plan) SimulateCtx(ctx context.Context, params Params, opt SimOptions) (*SimStats, error) {
	return sim.SimulateCtx(ctx, p.Structure, p.Schedule, p.assignment(), params, opt)
}

// SimulateSequential runs the single-processor simulation for speedup
// comparisons.
func (p *Plan) SimulateSequential(params Params) (*SimStats, error) {
	return sim.Simulate(p.Structure, p.Schedule, sim.Sequential(p.Structure), params, SimOptions{})
}

// Execute runs the kernel for real — one goroutine per processor, channels
// as links — and returns the dataflow trace.
func (p *Plan) Execute() (*ExecResult, *ExecStats, error) {
	a := p.assignment()
	return exec.Run(p.Kernel, p.Structure, a.ProcOf, a.NumProcs)
}

// Verify executes the plan concurrently and checks the result against the
// sequential reference, returning an error on any divergence.
func (p *Plan) Verify() error {
	return p.VerifyCtx(context.Background())
}

// VerifyCtx is Verify with cancellation checks at the stage boundaries
// (before the sequential reference run, before the concurrent execution,
// and before the comparison). A nil ctx means context.Background().
func (p *Plan) VerifyCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	want, err := kernels.RunSequential(p.Kernel)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	got, _, err := p.Execute()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("loopmap: concurrent execution of %s diverged from sequential reference", p.Kernel.Name)
	}
	return nil
}

// Summary renders a human-readable description of the plan.
func (p *Plan) Summary() string {
	ms, _ := p.EvaluateMapping()
	return p.SummaryWith(ms)
}

// SummaryWith is Summary for a caller that already holds the plan's
// EvaluateMapping statistics; ms is unused when the plan has no mapping
// phase.
func (p *Plan) SummaryWith(ms mapping.Stats) string {
	return string(p.AppendSummary(make([]byte, 0, 512), ms))
}

// AppendSummary appends SummaryWith's text to b and returns the extended
// buffer.
func (p *Plan) AppendSummary(b []byte, ms mapping.Stats) []byte {
	// put appends text and then x in decimal.
	put := func(text string, x int64) { b = strconv.AppendInt(append(b, text...), x, 10) }
	b = append(append(b, "kernel "...), p.Kernel.Name...)
	put(": ", int64(p.Structure.Len()))
	put(" iterations, ", int64(len(p.Structure.D)))
	b = p.Schedule.Pi.AppendString(append(b, " dependences, Π = "...))
	put(", ", p.Schedule.Steps())
	put(" steps\nprojection: ", int64(p.Projected.NumPoints()))
	put(" projected points (s = ", p.Projected.S)
	put("), group size r = ", p.Partitioning.R)
	put(", β = ", int64(p.Partitioning.Beta))
	es := p.TIG.EdgeStats()
	put("\npartitioning: ", int64(p.Partitioning.NumBlocks()))
	put(" blocks, max block ", p.TIG.MaxLoad())
	put(" points, ", int64(es.InterBlock))
	put("/", int64(es.Total))
	put(" dependences interblock\nTIG: ", int64(len(p.TIG.Edges)))
	put(" edges, traffic ", p.TIG.TotalTraffic())
	put(", max out-degree ", int64(p.TIG.MaxOutDegree()))
	put(" (Theorem 2 bound ", int64(core.Theorem2Bound(p.Partitioning)))
	b = append(b, ")\n"...)
	if p.Mapping != nil {
		b = p.Mapping.Cube.AppendString(append(b, "mapping: "...))
		put(", hop-weight ", ms.HopWeight)
		put(", max dilation ", int64(ms.MaxDilation))
		put(", load [", ms.MinLoad)
		put(", ", ms.MaxLoad)
		b = append(b, "]\n"...)
	}
	return b
}

// EvaluateMapping computes mapping-quality statistics of the plan's TIG
// under its mapping.
func (p *Plan) EvaluateMapping() (mapping.Stats, error) {
	if p.Mapping == nil {
		return mapping.Stats{}, errors.New("loopmap: plan has no mapping phase")
	}
	return mapping.Evaluate(p.TIG, p.Mapping), nil
}

// MeshMapping is Algorithm 2 extended to a 2-D mesh target.
type MeshMapping = mapping.MeshResult

// MapOntoMesh maps the plan's blocks onto a rows×cols mesh — the
// extension target the paper's conclusion points at — and returns the
// mapping together with its quality statistics.
func (p *Plan) MapOntoMesh(rows, cols int) (*MeshMapping, mapping.Stats, error) {
	m, err := mapping.MapPartitioningMesh(p.Partitioning, rows, cols, mapping.Options{})
	if err != nil {
		return nil, mapping.Stats{}, err
	}
	return m, mapping.EvaluateMesh(p.TIG, m), nil
}

// SimulateMesh simulates the planned execution on a rows×cols mesh with
// Manhattan-distance hop costs.
func (p *Plan) SimulateMesh(rows, cols int, params Params, opt SimOptions) (*SimStats, error) {
	m, err := mapping.MapPartitioningMesh(p.Partitioning, rows, cols, mapping.Options{})
	if err != nil {
		return nil, err
	}
	return sim.Simulate(p.Structure, p.Schedule, sim.FromMeshMapping(p.Partitioning, m), params, opt)
}
