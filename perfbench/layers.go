package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"

	loopmap "repro"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/mapping"
	"repro/internal/persist"
	"repro/internal/project"
	"repro/internal/tiered"
)

// Planner stages in pipeline order, as NewPlanCtx runs them. evaluate is
// the mapping-quality pass the daemon adds when it builds a response; it
// is outside NewPlanCtx and so outside the coverage sum.
var stageNames = []string{
	"kernels.structure_ms", "hyperplane.schedule_ms", "project.project_ms",
	"core.partition_ms", "core.invariants_ms", "core.tig_ms", "mapping.map_ms",
}

// coverageTolerance bounds |stage_coverage − 1|: the stages timed one by
// one must add up to NewPlanCtx's own time within this share. Coverage is
// a median over requests, so one request slowed from outside cannot fail
// the check.
const coverageTolerance = 0.15

// plannerReport is the planner replay's per-request means.
type plannerReport struct {
	requests int
	stageMS  map[string]float64 // mean ms per request, by stage name
	evalMS   float64
	newPlan  float64 // mean NewPlanCtx ms per request
	coverage float64 // median over requests of stage sum / NewPlanCtx time
	points   float64 // mean iteration points
	projPts  float64 // mean projected points
	blocks   float64
	tigEdges float64
}

func (r *plannerReport) stageSum() float64 {
	s := 0.0
	for _, n := range stageNames {
		s += r.stageMS[n]
	}
	return s
}

// replayPlanner runs the miss-cold key sequence on one goroutine through
// each public stage function, and through NewPlanCtx for comparison, for
// at least budget (and at least minKeys keys, all of them if fewer). The
// staged pass and the whole-plan pass alternate which goes first.
func replayPlanner(ctx context.Context, w *Workload, budget time.Duration) (*plannerReport, error) {
	const minKeys = 20
	r := &plannerReport{stageMS: map[string]float64{}}
	var newPlan time.Duration
	stage := make([]time.Duration, len(stageNames))
	var eval time.Duration
	var ratios []float64
	start := time.Now()
	for i, op := range w.Ops {
		if i >= minKeys && time.Since(start) >= budget {
			break
		}
		req := &w.Keys[op.Key]
		k, err := loopmap.LookupKernel(req.Kernel, req.Size)
		if err != nil {
			return nil, err
		}
		var wholeT, stagedT time.Duration
		whole := func() error {
			t := time.Now()
			_, err := loopmap.NewPlanCtx(ctx, k, loopmap.PlanOptions{
				CubeDim:   req.CubeDimOrDefault(),
				Partition: loopmap.PartitionOptions{MergeFactor: req.MergeFactor, NoAux: req.NoAux},
			})
			wholeT = time.Since(t)
			newPlan += wholeT
			return err
		}
		if i%2 == 0 {
			if err := whole(); err != nil {
				return nil, fmt.Errorf("%s: %w", req.ResponseKey(), err)
			}
		}
		var t time.Time
		lap := func(s int) {
			d := time.Since(t)
			stage[s] += d
			stagedT += d
			t = time.Now()
		}
		t = time.Now()
		st, err := k.StructureCtx(ctx)
		if err != nil {
			return nil, err
		}
		lap(0)
		sch, err := hyperplane.NewSchedule(st, k.Pi)
		if err != nil {
			return nil, err
		}
		lap(1)
		ps, err := project.Project(st, sch.Pi)
		if err != nil {
			return nil, err
		}
		lap(2)
		part, err := core.PartitionCtx(ctx, ps, core.Options{MergeFactor: req.MergeFactor, NoAux: req.NoAux})
		if err != nil {
			return nil, err
		}
		lap(3)
		if err := core.CheckInvariants(part); err != nil {
			return nil, err
		}
		lap(4)
		tig := core.BuildTIG(part)
		lap(5)
		m, err := mapping.MapPartitioning(part, req.CubeDimOrDefault(), mapping.Options{})
		if err != nil {
			return nil, err
		}
		lap(6)
		_ = mapping.Evaluate(tig, m)
		eval += time.Since(t)
		if i%2 == 1 {
			if err := whole(); err != nil {
				return nil, fmt.Errorf("%s: %w", req.ResponseKey(), err)
			}
		}
		ratios = append(ratios, float64(stagedT)/float64(wholeT))
		r.requests++
		r.points += float64(len(st.V))
		r.projPts += float64(len(ps.Points))
		r.blocks += float64(part.NumBlocks())
		r.tigEdges += float64(len(tig.Edges))
	}
	n := float64(r.requests)
	for s, name := range stageNames {
		r.stageMS[name] = ms(stage[s]) / n
	}
	r.evalMS = ms(eval) / n
	r.newPlan = ms(newPlan) / n
	r.coverage = median(ratios)
	r.points /= n
	r.projPts /= n
	r.blocks /= n
	r.tigEdges /= n
	return r, nil
}

// tierReport is the tier replay's measurements.
type tierReport struct {
	openS      float64
	puts, gets []time.Duration
	getPanics  int
	before     tiered.Stats
	after      tiered.Stats
}

var errGetPanicked = errors.New("tiered: Get panicked")

// timedGet is one timed Get. A miss is not an error: the store answers a
// miss when a compaction closes a segment the Get is still reading, and
// disk_hit_ratio counts it. The same race can also panic — close clears
// the segment's file while the Get reads it — and the replay counts that
// as tiered.get_panics rather than dying of it.
func timedGet(s *tiered.Store, key string) (d time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w on %s: %v", errGetPanicked, key, r)
		}
	}()
	t := time.Now()
	_, _, err = s.Get(key)
	return time.Since(t), err
}

// Record shapes of the tier replay. The daemon stores a plan's canonical
// request under b|<base key> and its encoded response under
// f|<response key>; frameBytes approximates an encoded plan response.
const (
	basePrefix  = "b|"
	framePrefix = "f|"
	frameBytes  = 900
	minTierPuts = 1010 // enough puts for a p99 with ten samples beyond it
)

// tierConfig is the store tier-churn's daemon opens, at the same sizes.
func tierConfig(dir string, fsync persist.Policy) tiered.Config {
	return tiered.Config{Dir: dir, Fsync: fsync, MemtableBytes: churnMemtableBytes}
}

// replayTier replays tier-churn's operations against a tiered.Store
// opened the way the daemon opens it: the fill keys are written untimed,
// the store is reopened (timed, tiered.open_s), then each re-touch is a
// timed Get of the key's frame and each fresh key two timed Puts. It runs
// at least budget and until minTierPuts puts, or to the end of the ops.
func replayTier(w *Workload, dir string, budget time.Duration) (*tierReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	frame := make([]byte, frameBytes)
	for i := range frame {
		frame[i] = 'a' + byte(i%26)
	}
	put := func(s *tiered.Store, k int) ([2]time.Duration, error) {
		req := &w.Keys[k]
		payload, err := json.Marshal(req)
		if err != nil {
			return [2]time.Duration{}, err
		}
		var d [2]time.Duration
		t := time.Now()
		if err := s.Put(basePrefix+req.Key(), payload); err != nil {
			return d, err
		}
		d[0] = time.Since(t)
		t = time.Now()
		if err := s.Put(framePrefix+req.ResponseKey(), frame); err != nil {
			return d, err
		}
		d[1] = time.Since(t)
		return d, nil
	}

	// The fill is untimed, so it skips the fsyncs; Close syncs the WAL.
	s, _, err := tiered.Open(tierConfig(dir, persist.FsyncNever))
	if err != nil {
		return nil, err
	}
	for _, k := range w.Warm {
		if _, err := put(s, k); err != nil {
			s.Close()
			return nil, fmt.Errorf("filling tier: %w", err)
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	syscall.Sync()

	rep := &tierReport{}
	var opens []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		s, _, err = tiered.Open(tierConfig(dir, persist.FsyncAlways))
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t).Seconds())
		if i < setupRepeats-1 {
			if err := s.Close(); err != nil {
				return nil, err
			}
		}
	}
	defer s.Close()
	rep.openS = median(opens)

	rep.before = s.Stats()
	start := time.Now()
	for _, op := range w.Ops {
		if len(rep.puts) >= minTierPuts && time.Since(start) >= budget {
			break
		}
		if op.Fresh {
			d, err := put(s, op.Key)
			if err != nil {
				return nil, err
			}
			rep.puts = append(rep.puts, d[0], d[1])
			continue
		}
		d, err := timedGet(s, framePrefix+w.Keys[op.Key].ResponseKey())
		switch {
		case errors.Is(err, errGetPanicked):
			rep.getPanics++
		case err != nil:
			return nil, err
		default:
			rep.gets = append(rep.gets, d)
		}
	}
	rep.after = s.Stats()
	return rep, nil
}
