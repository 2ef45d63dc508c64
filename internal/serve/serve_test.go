package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	loopmap "repro"
	"repro/api"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func planBody(t *testing.T, url, body string) api.PlanResponse {
	t.Helper()
	resp, out := postJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, out)
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(out, &pr); err != nil {
		t.Fatalf("decode: %v: %s", err, out)
	}
	return pr
}

func TestPlanMissThenHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`

	first := planBody(t, ts.URL+"/v1/plan", body)
	if first.Cache != api.CacheMiss {
		t.Fatalf("first request cache = %q, want %q", first.Cache, api.CacheMiss)
	}
	if first.Blocks != 9 || first.Procs != 8 {
		t.Fatalf("l1 size 8 on 3-cube: blocks=%d procs=%d, want 9 and 8", first.Blocks, first.Procs)
	}

	second := planBody(t, ts.URL+"/v1/plan", body)
	if second.Cache != api.CacheHit {
		t.Fatalf("second request cache = %q, want %q", second.Cache, api.CacheHit)
	}
	if second.Summary != first.Summary {
		t.Fatalf("cached plan differs:\n%s\nvs\n%s", second.Summary, first.Summary)
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.PlanComputations != 1 {
		t.Fatalf("hits=%d misses=%d computations=%d, want 1/1/1", m.CacheHits, m.CacheMisses, m.PlanComputations)
	}
	if m.CacheEntries != 1 || m.CacheBytes <= 0 {
		t.Fatalf("cache entries=%d bytes=%d, want 1 entry with positive bytes", m.CacheEntries, m.CacheBytes)
	}
}

// One cached base plan serves every cube dimension: requests differing only
// in cube_dim share a cache line through Plan.Remap.
func TestPlanCubeDimSharesBasePlan(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i, dim := range []int{3, 1, 5, 0} {
		pr := planBody(t, ts.URL+"/v1/plan", fmt.Sprintf(`{"kernel": "l1", "size": 8, "cube_dim": %d}`, dim))
		want := api.CacheHit
		if i == 0 {
			want = api.CacheMiss
		}
		if pr.Cache != want {
			t.Fatalf("dim %d: cache = %q, want %q", dim, pr.Cache, want)
		}
		if pr.CubeDim != dim {
			t.Fatalf("dim %d echoed as %d", dim, pr.CubeDim)
		}
	}
	if m := s.Metrics(); m.PlanComputations != 1 {
		t.Fatalf("computations = %d, want 1 across all cube dims", m.PlanComputations)
	}
}

// The acceptance bar: a thundering herd of identical requests performs
// exactly one NewPlan computation. Run with -race.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 32
	body := `{"kernel": "matmul", "size": 16, "cube_dim": 3}`

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/v1/plan", body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %s: %s", resp.Status, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := s.Metrics()
	if m.PlanComputations != 1 {
		t.Fatalf("computations = %d, want exactly 1 for %d identical concurrent requests", m.PlanComputations, clients)
	}
	if m.CacheMisses != 1 {
		t.Fatalf("misses = %d, want 1", m.CacheMisses)
	}
	if got := m.CacheHits + m.SingleflightShared + m.CacheMisses; got != clients {
		t.Fatalf("hits(%d) + shared(%d) + misses(%d) = %d, want %d",
			m.CacheHits, m.SingleflightShared, m.CacheMisses, got, clients)
	}
}

func TestCacheEviction(t *testing.T) {
	// A one-byte budget keeps only the newest plan: the second distinct
	// request evicts the first, and repeating the first misses again. The
	// repeat asks for another cube dimension, so the encoded-response
	// cache misses too and the outcome is the plan LRU's.
	s, ts := newTestServer(t, Config{CacheBytes: 1})
	a := `{"kernel": "l1", "size": 6, "cube_dim": 2}`
	b := `{"kernel": "l1", "size": 7, "cube_dim": 2}`
	a3 := `{"kernel": "l1", "size": 6, "cube_dim": 3}`

	if pr := planBody(t, ts.URL+"/v1/plan", a); pr.Cache != api.CacheMiss {
		t.Fatalf("first a: %q", pr.Cache)
	}
	if pr := planBody(t, ts.URL+"/v1/plan", b); pr.Cache != api.CacheMiss {
		t.Fatalf("first b: %q", pr.Cache)
	}
	if pr := planBody(t, ts.URL+"/v1/plan", a3); pr.Cache != api.CacheMiss {
		t.Fatalf("second a after eviction: %q, want %q", pr.Cache, api.CacheMiss)
	}
	m := s.Metrics()
	if m.CacheEvictions < 2 {
		t.Fatalf("evictions = %d, want >= 2", m.CacheEvictions)
	}
	if m.CacheEntries != 1 {
		t.Fatalf("entries = %d, want 1 under a one-byte budget", m.CacheEntries)
	}
}

func TestDeadlineExceededReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 1 ms budget cannot plan a 262144-point kernel; the cooperative
	// checks in enumeration/partitioning surface context.DeadlineExceeded.
	resp, out := postJSON(t, ts.URL+"/v1/plan", `{"kernel": "matmul", "size": 64, "timeout_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %s, want 504; body %s", resp.Status, out)
	}
	var ae apiError
	if err := json.Unmarshal(out, &ae); err != nil || ae.Code != http.StatusGatewayTimeout {
		t.Fatalf("error envelope: %s", out)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/plan", `{"kernel": `},
		{"unknown field", "/v1/plan", `{"kernel": "l1", "size": 8, "bogus": 1}`},
		{"missing kernel", "/v1/plan", `{"size": 8}`},
		{"unknown kernel", "/v1/plan", `{"kernel": "nope", "size": 8}`},
		{"size zero", "/v1/plan", `{"kernel": "l1", "size": 0}`},
		{"size too large", "/v1/plan", `{"kernel": "l1", "size": 100000}`},
		{"cube dim too large", "/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 99}`},
		{"negative search bound", "/v1/plan", `{"kernel": "l1", "size": 8, "search_bound": -1}`},
		{"pi conflicts with search", "/v1/plan", `{"kernel": "l1", "size": 8, "pi": [1, 1], "search_pi": true}`},
		{"grouping choice out of range", "/v1/plan", `{"kernel": "l1", "size": 4, "grouping_choice": 9}`},
		{"pi whose Π·Π wraps to 0", "/v1/plan", `{"kernel": "l1", "size": 8, "pi": [4294967296, 4294967296]}`},
		{"pi whose Π·Π wraps negative", "/v1/plan", `{"kernel": "l1", "size": 8, "pi": [2147483648, 2147483648]}`},
		{"pi whose Π·Π wraps to 1", "/v1/plan", `{"kernel": "l1", "size": 8, "pi": [4294967296, 1]}`},
		{"pi whose scaled projections overflow", "/v1/plan", `{"kernel": "l1", "size": 8, "pi": [3037000499, 1]}`},
		{"trailing junk", "/v1/plan", `{"kernel":"l1","size":8} junk`},
		{"two objects", "/v1/plan", `{"kernel":"l1","size":8}{"kernel":"l1","size":8}`},
		{"simulate trailing junk", "/v1/simulate", `{"kernel":"l1","size":8} junk`},
		{"batch trailing object", "/v1/batch", `{"items":[{"plan":{"kernel":"l1","size":8}}]}{}`},
		{"unknown era", "/v1/simulate", `{"kernel": "l1", "size": 8, "era": "victorian"}`},
		{"unknown engine", "/v1/simulate", `{"kernel": "l1", "size": 8, "engine": "warp"}`},
		{"spmd missing source", "/v1/spmd", `{"name": "x"}`},
		{"spmd syntax error", "/v1/spmd", `{"source": "for i = 0 to"}`},
	}
	for _, c := range cases {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400; body %s", c.name, resp.Status, out)
		}
	}
}

// TestRequestLog: a configured logger gets one "request" record per
// /v1/plan carrying method, path and status, so the Enabled check in
// instrument silences only the default logger, which reports disabled.
func TestRequestLog(t *testing.T) {
	if New(Config{}).cfg.Logger.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger is enabled; it should discard records before formatting them")
	}
	var buf bytes.Buffer
	h := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))}).Handler()
	bodies := []string{`{"kernel":"l1","size":8}`, `{"kernel":"l1","size":8}`, `{"kernel":"nope","size":8}`}
	for _, body := range bodies {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
	}
	var records []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, " msg=request ") {
			records = append(records, line)
		}
	}
	if len(records) != len(bodies) {
		t.Fatalf("%d request records for %d requests:\n%s", len(records), len(bodies), buf.String())
	}
	for i, status := range []int{200, 200, 400} {
		want := fmt.Sprintf("method=POST path=/v1/plan status=%d ", status)
		if !strings.Contains(records[i], want) {
			t.Errorf("record %d = %q, want it to contain %q", i, records[i], want)
		}
	}
}

func TestExclusiveMappingCubeTooSmall(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// l1 size 8 partitions into 9 blocks; a 3-cube has 8 nodes.
	resp, out := postJSON(t, ts.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 3, "exclusive": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("exclusive on a too-small cube: status = %s, want 400; body %s", resp.Status, out)
	}
	// The same placement on a 4-cube (16 nodes) succeeds, and every node
	// carries at most one block.
	pr := planBody(t, ts.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 4, "exclusive": true}`)
	if pr.MaxLoad != int64(pr.MaxBlock) {
		t.Fatalf("exclusive placement: max load %d, want one block per node (max block %d)", pr.MaxLoad, pr.MaxBlock)
	}
}

func TestSimulateEnginesAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got [2]api.SimulateResponse
	for i, engine := range []string{"point", "block"} {
		resp, out := postJSON(t, ts.URL+"/v1/simulate",
			fmt.Sprintf(`{"kernel": "l1", "size": 8, "cube_dim": 3, "era": "unit", "engine": %q, "sequential": true}`, engine))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", engine, resp.Status, out)
		}
		if err := json.Unmarshal(out, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got[0].Makespan != got[1].Makespan {
		t.Fatalf("point makespan %v != block makespan %v", got[0].Makespan, got[1].Makespan)
	}
	if got[0].Speedup <= 1 {
		t.Fatalf("speedup = %v, want > 1", got[0].Speedup)
	}
}

func TestSimulateTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/v1/simulate",
		`{"kernel": "l1", "size": 8, "cube_dim": 3, "engine": "point", "trace": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, out)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	// trace.Chrome emits the JSON-array form of the trace-event format.
	var events []json.RawMessage
	if err := json.Unmarshal(sr.Trace, &events); err != nil {
		t.Fatalf("embedded trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestSPMDEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := json.Marshal(api.SPMDRequest{
		Name:   "l1",
		Source: "for i = 0 to 7\nfor j = 0 to 7\n{\n  A[i+1, j+1] = A[i+1, j] + B[i, j]\n  B[i+1, j] = A[i, j] * 2 + C\n}\n",
	})
	resp, out := postJSON(t, ts.URL+"/v1/spmd", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, out)
	}
	var sr api.SPMDResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "func runParallel", "func runSequential"} {
		if !strings.Contains(sr.Source, want) {
			t.Errorf("generated program missing %q", want)
		}
	}
}

func TestKernelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, out)
	}
	var ks []api.KernelInfo
	if err := json.Unmarshal(out, &ks); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, k := range ks {
		found[k.Name] = true
		if k.Dims < 2 || len(k.Pi) != k.Dims {
			t.Errorf("kernel %s: dims=%d pi=%v", k.Name, k.Dims, k.Pi)
		}
	}
	for _, want := range []string{"l1", "matmul", "matvec"} {
		if !found[want] {
			t.Errorf("kernel %q missing from listing", want)
		}
	}
}

func TestHealthAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
	s.SetDraining()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("/readyz while draining: %d %q, want 503 draining", resp.StatusCode, body)
	}
	// Liveness is unaffected by draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	planBody(t, ts.URL+"/v1/plan", body)
	planBody(t, ts.URL+"/v1/plan", body)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	text := string(out)
	for _, want := range []string{
		"loopmapd_cache_hits_total 1",
		"loopmapd_cache_misses_total 1",
		"loopmapd_plan_computations_total 1",
		"loopmapd_inflight_plans 0",
		"loopmapd_cache_entries 1",
		`loopmapd_requests_total{endpoint="/v1/plan",code="200"} 2`,
		`loopmapd_request_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 2`,
		`loopmapd_request_seconds_count{endpoint="/v1/plan"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := `{"kernel": "l1", "size": 8, "pi": [` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`
	resp, _ := postJSON(t, ts.URL+"/v1/plan", huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}

	// A valid request padded one byte past the limit and sent chunked
	// declares no length, so the limit alone turns it away.
	small := `{"kernel":"l1","size":8,"pi":[1,1]}`
	over := small + strings.Repeat(" ", maxBodyBytes+1-len(small))
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", io.MultiReader(strings.NewReader(over)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized chunked body: status %d, want 400", resp.StatusCode)
	}

	// Padded to exactly the limit, it is read whole and answered as the
	// request without its padding is.
	atLimit := over[:maxBodyBytes]
	_, fresh := newTestServer(t, Config{})
	wantResp, want := postJSON(t, fresh.URL+"/v1/plan", small)
	resp, got := postJSON(t, ts.URL+"/v1/plan", atLimit)
	if resp.StatusCode != wantResp.StatusCode || !bytes.Equal(got, want) {
		t.Fatalf("body of exactly %d bytes: status %d %s, want %d %s", maxBodyBytes, resp.StatusCode, got, wantResp.StatusCode, want)
	}
}

func TestDefaultTimeoutClamped(t *testing.T) {
	// A request asking for an absurd deadline is clamped to MaxTimeout —
	// observable as a fast 504 when MaxTimeout is tiny.
	_, ts := newTestServer(t, Config{MaxTimeout: time.Millisecond})
	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/plan", `{"kernel": "matmul", "size": 64, "timeout_ms": 3600000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("clamped request took %v", elapsed)
	}
}

// TestSPMDOverflowBoundsRejected: adversarial DSL bounds whose iteration-
// space sizing overflows int64 are a 400 (typed ErrTooLarge), not a silent
// wraparound or a 500.
func TestSPMDOverflowBoundsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"source": "for i = 0 to 4294967296\nfor j = 0 to 4294967296\n{\n A[i+1, j] = A[i, j]\n}"}`
	resp, out := postJSON(t, ts.URL+"/v1/spmd", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing bounds: status %d (%s), want 400", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "too large") {
		t.Fatalf("error body %s does not name the overflow", out)
	}
}

// TestHugeMergeFactorAnswersPromptly: /v1/plan with a merge factor far
// past the kernel's extent answers 200 inside its 500 ms budget and gives
// its admission slot back; one whose r·q overflows int64 is a 400. Each
// request must be answered within 5 s.
func TestHugeMergeFactorAnswersPromptly(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, c := range []struct {
		merge string
		want  int
	}{
		{"1099511627776", http.StatusOK},
		{"9223372036854775807", http.StatusBadRequest},
	} {
		body := `{"kernel":"l1","size":8,"merge_factor":` + c.merge + `,"timeout_ms":500}`
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			if rec.Code != c.want {
				t.Fatalf("%s: status %d, want %d: %s", body, rec.Code, c.want, rec.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5 s (%d plans in flight)", body, s.Metrics().InflightPlans)
		}
		if n := s.Metrics().InflightPlans; n != 0 {
			t.Fatalf("%s: %d plans still in flight after the answer", body, n)
		}
	}
}

// TestPanickingPlanDoesNotPoisonItsKey plants a Π-stage whose PlanCtx
// panics under l1/8's stage key. The first request answers 500; the
// repeat must be computed again (and panic again) well before its 500 ms
// deadline, not wait on the dead computation and answer 504, and leave
// no plan in flight. Once the stage is gone, the key plans normally.
func TestPanickingPlanDoesNotPoisonItsKey(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	skey := string((&api.PlanRequest{Kernel: "l1", Size: 8}).AppendStageKey(nil))
	s.cache.mu.Lock()
	s.cache.stages[skey] = &stageEntry{stage: &loopmap.Stage{}}
	s.cache.mu.Unlock()
	body := `{"kernel":"l1","size":8,"timeout_ms":500}`
	for i, want := range []int{http.StatusInternalServerError, http.StatusInternalServerError, http.StatusOK} {
		if i == 2 {
			s.cache.mu.Lock()
			delete(s.cache.stages, skey)
			s.cache.mu.Unlock()
		}
		start := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("request %d: status %d after %v, want %d: %s", i, rec.Code, time.Since(start), want, rec.Body)
		}
		if took := time.Since(start); took > 250*time.Millisecond {
			t.Fatalf("request %d took %v, want an answer well before its 500 ms deadline", i, took)
		}
		if n := s.Metrics().InflightPlans; n != 0 {
			t.Fatalf("request %d: %d plans still in flight after the answer", i, n)
		}
	}
}

// TestPiSearchAnswersAtDeadline sends Π searches far too large to finish
// (bound 100000, and one whose loop would wrap at math.MaxInt64) with a
// 200 ms deadline: each must answer 504 within a few seconds and release
// its admission slot.
func TestPiSearchAnswersAtDeadline(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, bound := range []string{"100000", "9223372036854775807"} {
		body := `{"kernel":"matmul","size":4,"search_pi":true,"search_bound":` + bound + `,"timeout_ms":200}`
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("%s: status %d, want 504: %s", body, rec.Code, rec.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5 s (%d plans in flight)", body, s.Metrics().InflightPlans)
		}
		if n := s.Metrics().InflightPlans; n != 0 {
			t.Fatalf("%s: %d plans still in flight after the answer", body, n)
		}
	}
}

// TestLatencyBucketsSeparateHitFromMiss: /metrics' endpoint histogram
// tells a hit from a miss. Misses of nine keys (about 1 ms each here) and
// then their hits land in different le buckets of
// loopmapd_request_seconds by median, so one preempted request cannot
// move either side.
func TestLatencyBucketsSeparateHitFromMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// scrape returns /v1/plan's cumulative bucket counts in le order.
	scrape := func() (les []string, counts []int64) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		const prefix = `loopmapd_request_seconds_bucket{endpoint="/v1/plan",le="`
		for _, line := range strings.Split(string(out), "\n") {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			le, count, _ := strings.Cut(rest, `"} `)
			var n int64
			fmt.Sscan(count, &n)
			les, counts = append(les, le), append(counts, n)
		}
		return les, counts
	}
	const keys = 9
	var prev []int64
	// medianBucket posts every key's body and returns the index of the
	// le bucket that holds the median of those requests.
	medianBucket := func(want api.CacheOutcome) int {
		for i := range keys {
			body := fmt.Sprintf(`{"kernel": "matvec", "size": %d, "cube_dim": 3}`, 56+i)
			if pr := planBody(t, ts.URL+"/v1/plan", body); pr.Cache != want {
				t.Fatalf("%s: cache %q, want %q", body, pr.Cache, want)
			}
		}
		les, counts := scrape()
		defer func() { prev = counts }()
		for i, n := range counts {
			if prev != nil {
				n -= prev[i]
			}
			if n > keys/2 {
				t.Logf("%s median in le=%s", want, les[i])
				return i
			}
		}
		t.Fatalf("%s: the buckets counted too few requests", want)
		return 0
	}
	miss := medianBucket(api.CacheMiss)
	if hit := medianBucket(api.CacheHit); hit >= miss {
		t.Fatalf("hits land in bucket %d, not below the misses' bucket %d", hit, miss)
	}
}
