package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	loopmap "repro"
	"repro/api"
)

// stageSizes are the two sizes each built-in kernel is checked at:
// 3-D kernels (a size² × size index space) stay smaller.
func stageSizes(kernel string) []int64 {
	switch kernel {
	case "closure", "matmul", "sor2d":
		return []int64{4, 8}
	}
	return []int64{7, 24}
}

// cachedStages is the number of Π-stages the cache holds.
func cachedStages(c *planCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stages)
}

// TestSharedStagePlansMatchFreshNewPlan is the oracle for plans built on
// a shared Π-stage: for every built-in kernel at two sizes, each merge
// factor 1–10 × aux on/off × grouping choice 0–1 built by Stage.PlanCtx
// on one stage, from 8 goroutines at once, must equal a fresh NewPlan on
// the same options — response fields, summary, GroupOf and TIG edges.
// Run with -race: every goroutine reads the stage concurrently.
func TestSharedStagePlansMatchFreshNewPlan(t *testing.T) {
	type variant struct {
		req *api.PlanRequest
		opt loopmap.PlanOptions
	}
	cube := 3
	for _, name := range loopmap.KernelNames() {
		for _, size := range stageSizes(name) {
			var variants []variant
			for merge := int64(1); merge <= 10; merge++ {
				for _, noAux := range []bool{false, true} {
					for choice := 0; choice <= 1; choice++ {
						req := &api.PlanRequest{Kernel: name, Size: size, CubeDim: &cube,
							MergeFactor: merge, NoAux: noAux, GroupingChoice: choice}
						opt := planOptions(req)
						opt.CubeDim = cube
						variants = append(variants, variant{req, opt})
					}
				}
			}
			st, err := loopmap.PrepareCtx(context.Background(), loopmap.NewKernel(name, size), loopmap.PlanOptions{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size, err)
			}
			shared := make([]*loopmap.Plan, len(variants))
			errs := make([]error, len(variants))
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(variants); i += 8 {
						shared[i], errs[i] = st.PlanCtx(context.Background(), variants[i].opt)
					}
				}(w)
			}
			wg.Wait()
			for i, v := range variants {
				fresh, err := loopmap.NewPlan(loopmap.NewKernel(name, size), v.opt)
				label := fmt.Sprintf("%s/%d merge %d noaux %v choice %d", name, size,
					v.req.MergeFactor, v.req.NoAux, v.req.GroupingChoice)
				if fmt.Sprint(err) != fmt.Sprint(errs[i]) {
					t.Fatalf("%s: shared-stage error %v, fresh error %v", label, errs[i], err)
				}
				if err != nil {
					continue
				}
				got := shared[i]
				if g, w := buildPlanResponse(v.req, got), buildPlanResponse(v.req, fresh); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: response\n got %+v\nwant %+v", label, g, w)
				}
				if got.Summary() != fresh.Summary() {
					t.Fatalf("%s: summary\n got %s\nwant %s", label, got.Summary(), fresh.Summary())
				}
				if !reflect.DeepEqual(got.Partitioning.GroupOf, fresh.Partitioning.GroupOf) {
					t.Fatalf("%s: GroupOf differs", label)
				}
				if got.TIG.N != fresh.TIG.N {
					t.Fatalf("%s: TIG has %d blocks, want %d", label, got.TIG.N, fresh.TIG.N)
				}
				for u := range got.TIG.N {
					gt, gw := got.TIG.Row(u)
					ft, fw := fresh.TIG.Row(u)
					if !reflect.DeepEqual(gt, ft) || !reflect.DeepEqual(gw, fw) {
						t.Fatalf("%s: TIG row %d differs", label, u)
					}
				}
			}
		}
	}
}

// TestStageKeySeparatesTimeFunctions: requests that differ in pi,
// search_pi or search_bound plan on different Π-stages, even when the
// time functions coincide, while spellings of one canonical request
// (search_bound 0 and 2) and merge variants share one.
func TestStageKeySeparatesTimeFunctions(t *testing.T) {
	defaultPi, err := json.Marshal([]int64(loopmap.NewKernel("l1", 8).Pi))
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"kernel": "l1", "size": 8}`,
		fmt.Sprintf(`{"kernel": "l1", "size": 8, "pi": %s}`, defaultPi),
		`{"kernel": "l1", "size": 8, "search_pi": true}`,
		`{"kernel": "l1", "size": 8, "search_pi": true, "search_bound": 3}`,
	}
	s, ts := newTestServer(t, Config{})
	for _, b := range bodies {
		planBody(t, ts.URL+"/v1/plan", b)
	}
	m := s.Metrics()
	if m.PlanComputations != int64(len(bodies)) || m.StageReuses != 0 || cachedStages(s.cache) != len(bodies) {
		t.Fatalf("computations %d, stage reuses %d, stages %d; want %d, 0, %d",
			m.PlanComputations, m.StageReuses, cachedStages(s.cache), len(bodies), len(bodies))
	}

	// The same stage, spelled differently or with other Algorithm 1
	// options, is reused.
	for _, b := range []string{
		`{"kernel": "l1", "size": 8, "search_pi": true, "search_bound": 2, "merge_factor": 2}`,
		`{"kernel": "l1", "size": 8, "merge_factor": 3, "no_aux": true}`,
	} {
		planBody(t, ts.URL+"/v1/plan", b)
	}
	if m := s.Metrics(); m.StageReuses != 2 || cachedStages(s.cache) != len(bodies) {
		t.Fatalf("stage reuses %d, stages %d; want 2, %d", m.StageReuses, cachedStages(s.cache), len(bodies))
	}
}

// TestMergeSweepSharesOneStage: a merge sweep over one kernel and size
// computes ten plans on one stage (nine reuses), and every response is
// byte-identical to a fresh daemon's.
func TestMergeSweepSharesOneStage(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for merge := 1; merge <= 10; merge++ {
		body := fmt.Sprintf(`{"kernel": "matvec", "size": 24, "cube_dim": 3, "merge_factor": %d}`, merge)
		_, got := postJSON(t, ts.URL+"/v1/plan", body)
		_, fresh := newTestServer(t, Config{})
		_, want := postJSON(t, fresh.URL+"/v1/plan", body)
		if string(got) != string(want) {
			t.Fatalf("merge %d: response differs from a fresh daemon's:\n got %s\nwant %s", merge, got, want)
		}
	}
	m := s.Metrics()
	if m.PlanComputations != 10 || m.StageReuses != 9 || cachedStages(s.cache) != 1 {
		t.Fatalf("computations %d, stage reuses %d, stages %d; want 10, 9, 1",
			m.PlanComputations, m.StageReuses, cachedStages(s.cache))
	}
}
