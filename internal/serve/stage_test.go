package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	loopmap "repro"
	"repro/api"
	"repro/internal/persist"
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

// TestHeldKeyBuildsEveryUse: the plan cache keeps no plan, so every use
// of a held key builds its plan from the cached stage. For every built-in
// kernel at size 8, after the key's first use (cube 7), /v1/plan on cube
// dimensions 0–6 with exclusive off and on each misses the encoded
// response cache and builds a plan: every status and body equals a fresh
// daemon's, cache field aside, every 200 answers a hit, each use counts a
// rebuild and no computation, and the plan cache's byte count stays where
// the first use left it. A /v1/simulate of the key is then a hit too,
// with a fresh daemon's body.
func TestHeldKeyBuildsEveryUse(t *testing.T) {
	s := New(Config{})
	serve := func(h http.Handler, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	check := func(path, body string) {
		t.Helper()
		code, got := serve(s.Handler(), path, body)
		wantCode, want := serve(New(Config{}).Handler(), path, body)
		if code != wantCode || !bytes.Equal(cacheField.ReplaceAll(got, nil), cacheField.ReplaceAll(want, nil)) {
			t.Fatalf("%s %s: %d %s\na fresh daemon answers %d %s", path, body, code, got, wantCode, want)
		}
		if code == http.StatusOK && !bytes.Contains(got, []byte(`"cache":"hit"`)) {
			t.Fatalf("%s %s: %s; want a hit", path, body, got)
		}
	}
	var uses int64
	for i, name := range loopmap.KernelNames() {
		first := fmt.Sprintf(`{"kernel": %q, "size": 8, "cube_dim": 7}`, name)
		if code, out := serve(s.Handler(), "/v1/plan", first); code != http.StatusOK {
			t.Fatalf("%s: %d %s", first, code, out)
		}
		held, _ := s.cache.stats()
		for dim := 0; dim <= 6; dim++ {
			for _, exclusive := range []bool{false, true} {
				check("/v1/plan", fmt.Sprintf(`{"kernel": %q, "size": 8, "cube_dim": %d, "exclusive": %v}`, name, dim, exclusive))
				uses++
			}
		}
		m := s.Metrics()
		if m.PlanRebuilds != uses || m.PlanComputations != int64(i+1) {
			t.Fatalf("%s: %d rebuilds, %d computations; want %d, %d", name, m.PlanRebuilds, m.PlanComputations, uses, i+1)
		}
		if b, _ := s.cache.stats(); b != held {
			t.Fatalf("%s: plan cache bytes %d after the held uses, %d after the first", name, b, held)
		}
	}
	check("/v1/simulate", `{"kernel": "stencil", "size": 8, "cube_dim": 2, "sequential": true}`)
}

// TestRecipeHerdRebuildsOnce: 32 concurrent remaps of a recipe, over
// cube dimensions 0–6 and both mapping modes, rebuild its plan exactly
// once, and every answer is a hit. The test holds the daemon's only
// admission slot until the whole herd has arrived, so every request
// finds the recipe. Run with -race.
func TestRecipeHerdRebuildsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	planBody(t, ts.URL+"/v1/plan", `{"kernel": "matvec", "size": 30, "cube_dim": 3}`)
	if !s.gate.TryAcquire() {
		t.Fatal("the admission slot is busy")
	}
	const herd = 32
	var wg sync.WaitGroup
	for g := range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// An exclusive mapping needs a processor per block.
			body := fmt.Sprintf(`{"kernel": "matvec", "size": 30, "cube_dim": %d}`, g%6)
			if g%2 == 1 {
				body = fmt.Sprintf(`{"kernel": "matvec", "size": 30, "cube_dim": %d, "exclusive": true}`, 5+g%4/2)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
			var pr api.PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); rec.Code != http.StatusOK || err != nil || pr.Cache != api.CacheHit {
				t.Errorf("%s: %d %q (%v); want 200 and a hit", body, rec.Code, pr.Cache, err)
			}
		}()
	}
	// Give the herd time to reach the recipe (see
	// TestFlightGroupDeduplicates), well within the 1 s admission wait.
	time.Sleep(100 * time.Millisecond)
	s.gate.Release()
	wg.Wait()
	if m := s.Metrics(); m.PlanRebuilds != 1 || m.PlanComputations != 1 {
		t.Fatalf("%d rebuilds, %d computations; want 1, 1", m.PlanRebuilds, m.PlanComputations)
	}
}

// TestRecoveredKeyUsesWriteNothing: a key recovered from the WAL enters
// the cache as a stage-less recipe. Each use after the restart builds the
// plan and answers a hit, the first attaches the stage, and neither
// writes to the durable store.
func TestRecoveredKeyUsesWriteNothing(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newPersistentServer(t, dir, nil)
	planBody(t, ts1.URL+"/v1/plan", `{"kernel": "l1", "size": 12, "cube_dim": 2}`)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 1 {
		t.Fatalf("recovered %d keys, want 1", rs.Recovered)
	}
	key := (&api.PlanRequest{Kernel: "l1", Size: 12}).Key()
	if st, ok := s2.cache.get(key); !ok || st != nil {
		t.Fatalf("recovered key: held %v, stage %v; want a stage-less recipe", ok, st != nil)
	}
	pre := s2.Metrics()
	for i := range 2 {
		resp, out := postJSON(t, ts2.URL+"/v1/simulate", `{"kernel": "l1", "size": 12, "cube_dim": 3}`)
		var sr api.SimulateResponse
		if err := json.Unmarshal(out, &sr); resp.StatusCode != http.StatusOK || err != nil || sr.Cache != api.CacheHit {
			t.Fatalf("simulate %d: %s %q (%v): %s; want 200 and a hit", i, resp.Status, sr.Cache, err, out)
		}
		if st, _ := s2.cache.get(key); st == nil {
			t.Fatalf("simulate %d: the recipe has no stage", i)
		}
	}
	post := s2.Metrics()
	if post.PlanRebuilds != 2 || post.PlanComputations != 0 || post.StageBuilds != 1 {
		t.Fatalf("%d rebuilds, %d computations, %d stage builds; want 2, 0, 1", post.PlanRebuilds, post.PlanComputations, post.StageBuilds)
	}
	if post.WALAppends != pre.WALAppends || post.WALBytes != pre.WALBytes || post.TieredKeys != pre.TieredKeys {
		t.Fatalf("a held key's use wrote to the store: WAL appends %d → %d, WAL bytes %d → %d, keys %d → %d",
			pre.WALAppends, post.WALAppends, pre.WALBytes, post.WALBytes, pre.TieredKeys, post.TieredKeys)
	}
}

// TestStagelessRecipeUnderRunningSimulate: a /v1/simulate that took its
// plan from the cache is still running when its key is evicted and
// re-ingested through /v1/replica as a stage-less recipe. When the
// simulation ends, charging the vertex set it built must skip the
// stage-less entry, and evicting that entry must release no stage. Run
// with -race.
func TestStagelessRecipeUnderRunningSimulate(t *testing.T) {
	srvs, tss := newTestCluster(t, 1)
	s, url := srvs[0], tss[0].URL
	req := &api.PlanRequest{Kernel: "matmul", Size: 24}
	key := req.Key()
	planBody(t, url+"/v1/plan", `{"kernel": "matmul", "size": 24, "cube_dim": 3}`)
	st, ok := s.cache.get(key)
	if !ok || st == nil {
		t.Fatal("the key's first use left no recipe on a stage")
	}

	done := make(chan struct{})
	var code int
	var out []byte
	go func() {
		defer close(done)
		resp, err := http.Post(url+"/v1/simulate", "application/json",
			strings.NewReader(`{"kernel": "matmul", "size": 24, "cube_dim": 4, "trace": true}`))
		if err != nil {
			code = -1
			return
		}
		out, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	}()
	// The simulation has its plan once it has built the stage's vertex
	// set; what follows it is the simulation itself.
	start := time.Now()
	for !st.Structure.Materialized() {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the simulation never built the stage's vertex set")
		}
		time.Sleep(50 * time.Microsecond)
	}
	evictAll(s.cache)
	var buf bytes.Buffer
	if err := persist.WriteRecords(&buf, []persist.Record{{Key: repBasePrefix + key, Value: persistPayload(req)}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/replica", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reloaded := time.Now()
	if st, ok := s.cache.get(key); !ok || st != nil {
		t.Fatalf("after ingest: held %v, stage %v; want a stage-less recipe", ok, st != nil)
	}
	<-done
	t.Logf("the simulation ran %v past the reload", time.Since(reloaded))
	if code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, out)
	}
	if st, ok := s.cache.get(key); !ok || st != nil {
		t.Fatalf("after the simulation: held %v, stage %v; want a stage-less recipe", ok, st != nil)
	}
	evictAll(s.cache)
	if b, n := s.cache.stats(); b != 0 || n != 0 || cachedStages(s.cache) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", b, n, cachedStages(s.cache))
	}
}

// TestIngestAppliesNewBaseRecordsOnly: a pushed or pulled base record for
// a key the cache already holds changes nothing, so ingest does not
// count it among the records applied (anti-entropy reports that count as
// records pulled).
func TestIngestAppliesNewBaseRecordsOnly(t *testing.T) {
	s := New(Config{})
	req := &api.PlanRequest{Kernel: "l1", Size: 8}
	rec := []persist.Record{{Key: repBasePrefix + req.Key(), Value: persistPayload(req)}}
	if n := s.ingestRecords(rec); n != 1 {
		t.Fatalf("first ingest applied %d records, want 1", n)
	}
	if n := s.ingestRecords(rec); n != 0 {
		t.Fatalf("re-ingesting a held key applied %d records, want 0", n)
	}
	if _, ok := s.cache.get(req.Key()); !ok {
		t.Fatal("the ingested key is not held")
	}
}
