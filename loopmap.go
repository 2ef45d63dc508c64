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
	"strings"

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
	// SimEngine selects the simulation engine in SimOptions.Engine.
	SimEngine = sim.Engine
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

// Simulation engines for SimOptions.Engine: the point-level reference
// simulator and the Lemma-1 block-level coarse engine, which produces
// identical results with far less memory and time (see DESIGN.md,
// "Performance architecture").
const (
	EnginePoint = sim.EnginePoint
	EngineBlock = sim.EngineBlock
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
	pl := plan.placement()
	return codegen.Generate(prog, plan.Schedule.Pi, pl.ProcOf, pl.NumProcs, seed)
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
func NewPlanCtx(ctx context.Context, k *Kernel, opt PlanOptions) (*Plan, error) {
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
		sch, err = hyperplane.FindOptimal(st, bound)
	default:
		sch, err = hyperplane.NewSchedule(st, k.Pi)
	}
	if err != nil {
		return nil, fmt.Errorf("%w for %s: %w", ErrNoSchedule, k.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		return nil, err
	}
	part, err := core.PartitionCtx(ctx, ps, opt.Partition)
	if err != nil {
		return nil, err
	}
	if err := core.CheckInvariants(part); err != nil {
		return nil, fmt.Errorf("loopmap: partitioning invariants violated: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := &Plan{
		Kernel:       k,
		Structure:    st,
		Schedule:     sch,
		Projected:    ps,
		Partitioning: part,
		TIG:          core.BuildTIG(part),
	}
	if opt.CubeDim >= 0 {
		m, err := mapping.MapPartitioning(part, opt.CubeDim, opt.Mapping)
		if err != nil {
			return nil, err
		}
		plan.Mapping = m
	}
	return plan, nil
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
func (p *Plan) RemapOpts(cubeDim int, opt MapOptions) (*Plan, error) {
	clone := *p
	clone.Mapping = nil
	clone.Degraded = nil
	if cubeDim >= 0 {
		m, err := mapping.MapPartitioning(p.Partitioning, cubeDim, opt)
		if err != nil {
			return nil, err
		}
		clone.Mapping = m
	}
	return &clone, nil
}

// RemapDegraded returns a plan that survives the given node failures:
// every dead node's blocks migrate to its nearest healthy node (a
// Gray-code physical neighbour whenever one survives — the adjacency
// Algorithm 2 paid for), and Hops/Route reroute over the surviving cube.
// The shared pipeline artifacts are reused; only the placement changes.
// The returned DegradationStats includes the makespan inflation under the
// paper-era cost model (block engine, Era1991 parameters).
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
	clone.Degraded = d
	params := machine.Era1991()
	base, err := p.Simulate(params, SimOptions{Engine: EngineBlock})
	if err != nil {
		return nil, nil, err
	}
	degr, err := clone.Simulate(params, SimOptions{Engine: EngineBlock})
	if err != nil {
		return nil, nil, err
	}
	if base.Makespan > 0 {
		stats.MakespanInflation = degr.Makespan / base.Makespan
	}
	return &clone, stats, nil
}

// placement returns the vertex→processor placement of the plan.
func (p *Plan) placement() exec.Placement {
	if p.Degraded != nil {
		procOf := make([]int, len(p.Partitioning.BlockOf))
		for vi, b := range p.Partitioning.BlockOf {
			procOf[vi] = p.Degraded.NodeOf[b]
		}
		return exec.Placement{ProcOf: procOf, NumProcs: p.Degraded.Cube.N}
	}
	if p.Mapping != nil {
		return exec.FromMapping(p.Partitioning, p.Mapping)
	}
	return exec.BlocksAsProcs(p.Partitioning)
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
	return exec.Run(p.Kernel, p.Structure, p.placement())
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
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: %d iterations, %d dependences, Π = %v, %d steps\n",
		p.Kernel.Name, len(p.Structure.V), len(p.Structure.D), p.Schedule.Pi, p.Schedule.Steps())
	fmt.Fprintf(&b, "projection: %d projected points (s = %d), group size r = %d, β = %d\n",
		len(p.Projected.Points), p.Projected.S, p.Partitioning.R, p.Partitioning.Beta)
	es := p.Partitioning.EdgeStats()
	fmt.Fprintf(&b, "partitioning: %d blocks, max block %d points, %d/%d dependences interblock\n",
		p.Partitioning.NumBlocks(), p.Partitioning.MaxBlockSize(), es.InterBlock, es.Total)
	fmt.Fprintf(&b, "TIG: %d edges, traffic %d, max out-degree %d (Theorem 2 bound %d)\n",
		len(p.TIG.Edges), p.TIG.TotalTraffic(), p.TIG.MaxOutDegree(), core.Theorem2Bound(p.Partitioning))
	if p.Mapping != nil {
		fmt.Fprintf(&b, "mapping: %s, hop-weight %d, max dilation %d, load [%d, %d]\n",
			p.Mapping.Cube, ms.HopWeight, ms.MaxDilation, ms.MinLoad, ms.MaxLoad)
	}
	return b.String()
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
