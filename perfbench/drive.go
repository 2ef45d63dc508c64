package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
)

// answers keeps the first decoded answer of every key, per client, so a
// repeat can be compared with it without locking. Merge compares the
// clients' first answers with each other.
type answers struct {
	first [clients][]*api.PlanResponse
}

func newAnswers(keys int) *answers {
	a := &answers{}
	for i := range a.first {
		a.first[i] = make([]*api.PlanResponse, keys)
	}
	return a
}

// merged returns one answer per key (nil for keys never answered) and the
// keys whose answers differ between clients.
func (a *answers) merged() ([]*api.PlanResponse, []int) {
	out := make([]*api.PlanResponse, len(a.first[0]))
	var differ []int
	for k := range out {
		for w := range a.first {
			r := a.first[w][k]
			switch {
			case r == nil:
			case out[k] == nil:
				out[k] = r
			case !sameAnswer(out[k], r):
				differ = append(differ, k)
			}
		}
	}
	return out, differ
}

// sameAnswer compares two plan responses, ignoring the per-request cache
// outcome.
func sameAnswer(a, b *api.PlanResponse) bool {
	if len(a.Pi) != len(b.Pi) {
		return false
	}
	for i := range a.Pi {
		if a.Pi[i] != b.Pi[i] {
			return false
		}
	}
	return a.Kernel == b.Kernel && a.Size == b.Size && a.Steps == b.Steps &&
		a.Iterations == b.Iterations && a.Blocks == b.Blocks && a.MaxBlock == b.MaxBlock &&
		a.GroupSizeR == b.GroupSizeR && a.Beta == b.Beta && a.TIGEdges == b.TIGEdges &&
		a.TIGTraffic == b.TIGTraffic && a.MaxOutDegree == b.MaxOutDegree &&
		a.CubeDim == b.CubeDim && a.Procs == b.Procs && a.HopWeight == b.HopWeight &&
		a.MaxDilation == b.MaxDilation && a.MinLoad == b.MinLoad && a.MaxLoad == b.MaxLoad &&
		a.Summary == b.Summary && a.Cluster == nil && b.Cluster == nil
}

// phase is what one pass of the closed loop over a slice of ops saw.
type phase struct {
	ops      int
	lat      []time.Duration // round trips of successful, correct answers
	overhead []time.Duration // round trip minus handler time (traced only)
	failed   int             // errors, wrong answers and ops never reached
	problems []string        // the first few failure messages
	elapsed  time.Duration
}

const maxProblems = 5

func (p *phase) add(q *phase) {
	p.ops += q.ops
	p.lat = append(p.lat, q.lat...)
	p.overhead = append(p.overhead, q.overhead...)
	p.failed += q.failed
	p.elapsed += q.elapsed
	for _, m := range q.problems {
		if len(p.problems) < maxProblems {
			p.problems = append(p.problems, m)
		}
	}
}

func (p *phase) note(format string, args ...any) {
	p.failed++
	if len(p.problems) < maxProblems {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// drive runs ops through the clients as a closed loop: each client takes
// the next op, waits for its answer, checks it, and takes another. Ops not
// started by stopAt count as failed.
func drive(ctx context.Context, cs []*client.Client, tr *tracer, w *Workload, ops []Op, ans *answers, stopAt time.Time) *phase {
	ctx, cancel := context.WithDeadline(ctx, stopAt)
	defer cancel()
	traced := tr != nil && tr.on.Load()
	var next atomic.Int64
	parts := make([]*phase, len(cs))
	start := time.Now()
	var wg sync.WaitGroup
	for wi := range cs {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			p := &phase{lat: make([]time.Duration, 0, len(ops)/len(cs)+1)}
			parts[wi] = p
			first := ans.first[wi]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				p.ops++
				if time.Now().After(stopAt) {
					p.note("op %d not reached before the run's time limit", i)
					continue
				}
				op := ops[i]
				req := &w.Keys[op.Key]
				var seq int64
				if traced {
					seq = tr.seq[wi].Load()
				}
				t0 := time.Now()
				resp, err := cs[wi].Plan(ctx, req)
				rt := time.Since(t0)
				if err != nil {
					p.note("%s: %v", req.ResponseKey(), err)
					continue
				}
				if resp.Kernel != req.Kernel || resp.Size != req.Size || resp.CubeDim != req.CubeDimOrDefault() {
					p.note("%s: answer is for %s size %d cube %d", req.ResponseKey(), resp.Kernel, resp.Size, resp.CubeDim)
					continue
				}
				if f := first[op.Key]; f == nil {
					first[op.Key] = resp
				} else if !sameAnswer(f, resp) {
					p.note("%s: repeat answer differs from the first", req.ResponseKey())
					continue
				}
				p.lat = append(p.lat, rt)
				if traced {
					if h, ok := tr.handlerTime(wi, seq); ok {
						p.overhead = append(p.overhead, rt-h)
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.add(p)
	}
	out.elapsed = time.Since(start)
	return out
}
