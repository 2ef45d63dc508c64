package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	loopmap "repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/nestgen"
)

// compactCase is one kernel the compact-stage tests plan, with the
// request fields its responses carry.
type compactCase struct {
	kernel string
	size   int64
	k      *loopmap.Kernel
}

// compactCases returns every built-in kernel at its two stage sizes and
// generated nests of every shape, 2-D and 3-D (rectangular, triangular,
// affine and empty-row).
func compactCases(t *testing.T) []compactCase {
	t.Helper()
	var out []compactCase
	for _, name := range loopmap.KernelNames() {
		for _, size := range stageSizes(name) {
			out = append(out, compactCase{name, size, loopmap.NewKernel(name, size)})
		}
	}
	rng := rand.New(rand.NewSource(20))
	shapes := map[string]bool{}
	for trial := 0; trial < 400 && len(shapes) < 2*len(nestgen.Kinds); trial++ {
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		shapes[fmt.Sprintf("%d/%d", trial%len(nestgen.Kinds), c.Nest.Dims)] = true
		k := kernels.Generic(c.Nest.Name, c.Nest, c.Deps, c.Pi, uint64(trial))
		out = append(out, compactCase{c.Name, 0, k})
	}
	if len(shapes) < 2*len(nestgen.Kinds) {
		t.Fatalf("generated %d of %d nest shapes", len(shapes), 2*len(nestgen.Kinds))
	}
	return out
}

// TestCompactStagePlansMatchEager: for every compact case, merge factor
// 1–10 and aux on and off, a plan built on a compact stage and remapped
// onto cubes 0–4 answers /v1/plan exactly as an eager NewPlan does, and
// the whole path (Algorithm 1, the invariant check, the TIG, Algorithm 2,
// EvaluateMapping and the response) never builds the stage's vertex set.
// A reader that starts reading V on that path fails here.
func TestCompactStagePlansMatchEager(t *testing.T) {
	ctx := context.Background()
	for _, c := range compactCases(t) {
		eager, err := loopmap.PrepareCtx(ctx, c.k, loopmap.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.kernel, err)
		}
		st := eager.Compact()
		for merge := int64(1); merge <= 10; merge++ {
			for _, noAux := range []bool{false, true} {
				label := fmt.Sprintf("%s/%d merge %d noaux %v", c.kernel, c.size, merge, noAux)
				opt := loopmap.PlanOptions{CubeDim: -1, Partition: loopmap.PartitionOptions{MergeFactor: merge, NoAux: noAux}}
				base, err := st.PlanCtx(ctx, opt)
				want, wantErr := loopmap.NewPlan(c.k, opt)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: compact error %v, eager error %v", label, err, wantErr)
				}
				if err != nil {
					continue
				}
				if merge == 1 {
					if err := core.CheckInvariants(base.Partitioning); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				for dim := 0; dim <= 4; dim++ {
					p, err := base.RemapOpts(dim, loopmap.MapOptions{})
					if err != nil {
						t.Fatalf("%s cube %d: %v", label, dim, err)
					}
					wp, err := want.RemapOpts(dim, loopmap.MapOptions{})
					if err != nil {
						t.Fatalf("%s cube %d: %v", label, dim, err)
					}
					if _, err := p.EvaluateMapping(); err != nil {
						t.Fatalf("%s cube %d: %v", label, dim, err)
					}
					req := &api.PlanRequest{Kernel: c.kernel, Size: c.size, CubeDim: &dim, MergeFactor: merge, NoAux: noAux}
					got, exp := buildPlanResponse(req, p), buildPlanResponse(req, wp)
					if !reflect.DeepEqual(got, exp) {
						t.Fatalf("%s cube %d: compact response\n%+v\neager\n%+v", label, dim, got, exp)
					}
				}
				if st.Structure.V != nil {
					t.Fatalf("%s: planning on the compact stage built V", label)
				}
			}
		}
	}
}

// cachedStage returns the Π-stage the server's plan cache holds for req.
func cachedStage(t *testing.T, s *Server, req *api.PlanRequest) *loopmap.Stage {
	t.Helper()
	st, ok := s.cache.stage(req.AppendStageKey(nil))
	if !ok {
		t.Fatalf("no cached stage for %s", req.Key())
	}
	return st
}

// eagerSimulate answers a simulate request from an eager NewPlan, through
// the same response code as the daemon.
func eagerSimulate(t *testing.T, s *Server, sreq *api.SimulateRequest) api.SimulateResponse {
	t.Helper()
	opt := planOptions(&sreq.PlanRequest)
	opt.CubeDim = sreq.CubeDimOrDefault()
	p, err := loopmap.NewPlan(loopmap.NewKernel(sreq.Kernel, sreq.Size), opt)
	if err != nil {
		t.Fatal(err)
	}
	params, err := simParams(sreq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.runSimulate(context.Background(), sreq, p, params)
	if err != nil {
		t.Fatal(err)
	}
	return *resp
}

// simulateVariants are the /v1/simulate fields (after the plan and
// engine fields) every consumer test runs: the plain run, the sequential
// baseline, a trace, aggregation, contention, fault schedules and
// degraded cubes, one of them with a crash.
var simulateVariants = []string{
	``,
	`, "sequential": true`,
	`, "trace": true, "contention": true`,
	`, "aggregate": true, "sequential": true`,
	`, "faults": {"seed": 7, "loss_prob": 0.3, "crashes": [{"node": 1, "t": 40}], "checkpoint_steps": 2, "checkpoint_cost": 5, "restart_cost": 10}`,
	`, "faults": {"seed": 3, "loss_prob": 0.2}`,
	`, "failed_nodes": [0, 5]`,
	`, "failed_nodes": [0], "trace": true, "faults": {"crashes": [{"node": 1, "t": 100}]}`,
}

// simulateEngines spells the engine field every way the API accepts it.
// The daemon has one simulator, so all three return the same bytes.
var simulateEngines = []string{``, `, "engine": "block"`, `, "engine": "point"`}

// TestCompactCachedPlanConsumers: every reader of V answers from a
// compact cached plan exactly as from an eager one. Each kernel is
// planned first, so /v1/simulate (faults, degraded cubes, the
// sequential baseline) and /v1/batch run on the cached compact stage;
// none of them builds V, and the stage's charge never changes. Every
// engine spelling of a request gets byte-identical /v1/simulate and
// /v1/batch bodies.
func TestCompactCachedPlanConsumers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, kern := range []struct {
		name string
		size int64
	}{{"l1", 9}, {"matvec", 12}, {"triangular", 14}, {"matmul", 4}} {
		plan := fmt.Sprintf(`"kernel": %q, "size": %d, "cube_dim": 3`, kern.name, kern.size)
		planBody(t, ts.URL+"/v1/plan", "{"+plan+"}")
		preq := &api.PlanRequest{Kernel: kern.name, Size: kern.size}
		st := cachedStage(t, s, preq)
		if st.Structure.V != nil {
			t.Fatalf("%s: /v1/plan built V", kern.name)
		}
		before, _ := s.cache.stats()

		var items []api.BatchItem
		var want []api.SimulateResponse
		for _, v := range simulateVariants {
			var first []byte
			for _, e := range simulateEngines {
				body := "{" + plan + e + v + "}"
				var sreq api.SimulateRequest
				if err := json.Unmarshal([]byte(body), &sreq); err != nil {
					t.Fatal(err)
				}
				exp := eagerSimulate(t, s, &sreq)
				resp, out := postJSON(t, ts.URL+"/v1/simulate", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: %s: %s", kern.name, body, resp.Status, out)
				}
				if first == nil {
					first = out
				} else if !bytes.Equal(out, first) {
					t.Fatalf("%s %s: body differs by engine spelling:\n%s\n%s", kern.name, body, out, first)
				}
				var got api.SimulateResponse
				if err := json.Unmarshal(out, &got); err != nil {
					t.Fatal(err)
				}
				if got.Cache != api.CacheHit {
					t.Fatalf("%s %s: cache %q, want a hit on the planned key", kern.name, body, got.Cache)
				}
				got.Cache = ""
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s %s: compact\n%+v\neager\n%+v", kern.name, body, got, exp)
				}
				items = append(items, api.BatchItem{Simulate: &sreq})
				want = append(want, exp)
			}
		}
		// The simulations build plans for a held key, which the cache does
		// not keep, on a stage whose charge is fixed.
		if st.Structure.V != nil {
			t.Fatalf("%s: simulating built the cached stage's V", kern.name)
		}
		if after, _ := s.cache.stats(); after != before {
			t.Fatalf("%s: simulating changed the cache's bytes from %d to %d", kern.name, before, after)
		}

		_, br := postBatch(t, ts.URL, api.BatchRequest{Items: items})
		if len(br.Results) != len(items) {
			t.Fatalf("%s: batch returned %d results, want %d", kern.name, len(br.Results), len(items))
		}
		for i, res := range br.Results {
			variant := simulateVariants[i/len(simulateEngines)] + simulateEngines[i%len(simulateEngines)]
			if first := br.Results[i-i%len(simulateEngines)].Body; !bytes.Equal(res.Body, first) {
				t.Fatalf("%s batch item %s: body differs by engine spelling:\n%s\n%s", kern.name, variant, res.Body, first)
			}
			var got api.SimulateResponse
			if err := json.Unmarshal(res.Body, &got); err != nil {
				t.Fatalf("%s batch item %d: %v (%s)", kern.name, i, err, res.Error)
			}
			got.Cache = ""
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s batch item %s: compact\n%+v\neager\n%+v", kern.name, variant, got, want[i])
			}
		}
		if st.Structure.V != nil {
			t.Fatalf("%s: the batch built the cached stage's V", kern.name)
		}
		if after, _ := s.cache.stats(); after != before {
			t.Fatalf("%s: the batch changed the cache's bytes from %d to %d", kern.name, before, after)
		}
	}

	// /v1/spmd plans on its own, outside the cache: its program must be
	// the one the library generates.
	src := "for i = 0 to 7\nfor j = 0 to 7\n{\n  A[i+1, j+1] = A[i+1, j] + B[i, j]\n  B[i+1, j] = A[i, j] * 2 + C\n}\n"
	want, err := loopmap.GenerateSPMD("loop", src, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(api.SPMDRequest{Source: src})
	resp, out := postJSON(t, ts.URL+"/v1/spmd", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/spmd: %s: %s", resp.Status, out)
	}
	var sr api.SPMDResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != want {
		t.Fatal("/v1/spmd program differs from GenerateSPMD")
	}
}

// TestCompactFirstRunConcurrent: eight /v1/simulate requests make the
// first run of one cached compact plan at once. Every answer equals the
// eager one, and none builds V or changes the cache's bytes. Run with
// -race.
func TestCompactFirstRunConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	planBody(t, ts.URL+"/v1/plan", `{"kernel": "stencil", "size": 40, "cube_dim": 2}`)
	st := cachedStage(t, s, &api.PlanRequest{Kernel: "stencil", Size: 40})
	before, _ := s.cache.stats()
	body := `{"kernel": "stencil", "size": 40, "cube_dim": 2, "engine": "point", "sequential": true}`
	var sreq api.SimulateRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		t.Fatal(err)
	}
	want := eagerSimulate(t, s, &sreq)

	got := make([]api.SimulateResponse, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: %d %s", g, rec.Code, rec.Body)
				return
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got[g]); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		got[g].Cache = ""
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d: compact\n%+v\neager\n%+v", g, got[g], want)
		}
	}
	if st.Structure.V != nil {
		t.Fatal("concurrent first runs built V")
	}
	if after, _ := s.cache.stats(); after != before {
		t.Fatalf("concurrent first runs changed the cache's bytes from %d to %d", before, after)
	}
}
