package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	loopmap "repro"
	"repro/api"
)

// expected recomputes a request directly through the library — NewPlan
// on the base options, then Remap onto the requested cube — and returns
// the fields a correct answer must carry.
func expected(req *api.PlanRequest) (*api.PlanResponse, error) {
	k, err := loopmap.LookupKernel(req.Kernel, req.Size)
	if err != nil {
		return nil, err
	}
	base, err := loopmap.NewPlan(k, loopmap.PlanOptions{
		CubeDim:   -1,
		Partition: loopmap.PartitionOptions{MergeFactor: req.MergeFactor, NoAux: req.NoAux},
	})
	if err != nil {
		return nil, err
	}
	p, err := base.RemapOpts(req.CubeDimOrDefault(), loopmap.MapOptions{Exclusive: req.Exclusive})
	if err != nil {
		return nil, err
	}
	out := &api.PlanResponse{
		Steps:        p.Schedule.Steps(),
		Iterations:   len(p.Structure.V),
		Blocks:       p.Partitioning.NumBlocks(),
		GroupSizeR:   p.Partitioning.R,
		Beta:         p.Partitioning.Beta,
		TIGEdges:     len(p.TIG.Edges),
		MaxOutDegree: p.TIG.MaxOutDegree(),
		Procs:        p.Procs(),
	}
	if p.Mapping != nil {
		ms, err := p.EvaluateMapping()
		if err != nil {
			return nil, err
		}
		out.HopWeight = ms.HopWeight
	}
	return out, nil
}

// diffAnswer names the first field where got departs from want.
func diffAnswer(got, want *api.PlanResponse) string {
	fields := []struct {
		name      string
		got, want int64
	}{
		{"steps", got.Steps, want.Steps},
		{"iterations", int64(got.Iterations), int64(want.Iterations)},
		{"blocks", int64(got.Blocks), int64(want.Blocks)},
		{"group_size_r", got.GroupSizeR, want.GroupSizeR},
		{"beta", int64(got.Beta), int64(want.Beta)},
		{"tig_edges", int64(got.TIGEdges), int64(want.TIGEdges)},
		{"max_out_degree", int64(got.MaxOutDegree), int64(want.MaxOutDegree)},
		{"procs", int64(got.Procs), int64(want.Procs)},
		{"hop_weight", got.HopWeight, want.HopWeight},
	}
	for _, f := range fields {
		if f.got != f.want {
			return fmt.Sprintf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}
	return ""
}

// verifier runs the oracle over answers as they arrive. The run calls
// check after each untimed phase and after each timed window, so every
// key is recomputed once and the oracle's work falls between windows,
// which spreads the windows over a longer stretch of the host's load.
type verifier struct {
	keys []api.PlanRequest
	done []bool
	bad  []string // per key, a mismatch message ("" when correct or unchecked)
}

func newVerifier(keys []api.PlanRequest) *verifier {
	return &verifier{keys: keys, done: make([]bool, len(keys)), bad: make([]string, len(keys))}
}

// check runs the oracle on `clients` goroutines, with every CPU, over
// every key answered since the last call.
func (v *verifier) check(ans *answers) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	got, _ := ans.merged()
	var todo []int
	for k, r := range got {
		if r != nil && !v.done[k] {
			v.done[k] = true
			todo = append(todo, k)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				k := todo[i]
				want, err := expected(&v.keys[k])
				switch {
				case err != nil:
					v.bad[k] = fmt.Sprintf("oracle failed on %s: %v", v.keys[k].ResponseKey(), err)
				default:
					if d := diffAnswer(got[k], want); d != "" {
						v.bad[k] = fmt.Sprintf("%s: %s", v.keys[k].ResponseKey(), d)
					}
				}
			}
		}()
	}
	wg.Wait()
}
