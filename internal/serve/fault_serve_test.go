package serve

// Tests for the daemon's robustness surface: panic-recovery middleware,
// admission-gate load shedding with Retry-After, and the /v1/simulate
// fault-injection and degraded-cube knobs.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/api"
)

func TestPanicMiddlewareRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	h := s.instrument("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/plan", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	var ae apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: body %q, want a 500 error envelope", rec.Body)
	}
	if got := s.Metrics().Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The recovered panic is observable in /metrics, and the server keeps
	// serving normal traffic afterwards.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), "loopmapd_panics_total 1") {
		t.Fatalf("/metrics missing loopmapd_panics_total 1:\n%s", out)
	}
	if pr := planBody(t, ts.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 3}`); pr.Blocks == 0 {
		t.Fatal("server stopped planning after a recovered panic")
	}

	// A panic after the response started cannot be rewritten, but is still
	// counted and recorded as a 500 in metrics.
	late := s.instrument("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "partial")
		panic("late boom")
	})
	rec = httptest.NewRecorder()
	late(rec, httptest.NewRequest("POST", "/v1/plan", strings.NewReader("{}")))
	if got := rec.Body.String(); got != "partial" {
		t.Fatalf("late panic rewrote a started response: %q", got)
	}
	if got := s.Metrics().Panics; got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}
}

func TestOverloadShedsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})

	// Saturate the single admission slot from outside the request path.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated gate: status %s, want 503; body %s", resp.Status, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", ra)
	}
	var ae apiError
	if err := json.Unmarshal(out, &ae); err != nil || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("503 envelope: %s", out)
	}

	// Releasing the slot readmits the identical retry.
	s.gate.Release()
	planBody(t, ts.URL+"/v1/plan", body)

	// Cache hits bypass the gate entirely: even a saturated daemon serves
	// already-computed plans.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Release()
	if pr := planBody(t, ts.URL+"/v1/plan", body); pr.Cache != api.CacheHit {
		t.Fatalf("cache = %q, want %q through a saturated gate", pr.Cache, api.CacheHit)
	}
}

func simulateBody(t *testing.T, url, body string) api.SimulateResponse {
	t.Helper()
	resp, out := postJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, out)
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatalf("decode: %v: %s", err, out)
	}
	return sr
}

func TestSimulateWithFaultSchedule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := simulateBody(t, ts.URL+"/v1/simulate",
		`{"kernel": "matvec", "size": 16, "cube_dim": 3, "engine": "block"}`)
	if base.Crashes != 0 || base.Retransmits != 0 || base.CheckpointTime != 0 {
		t.Fatalf("fault-free run reports fault accounting: %+v", base)
	}

	body := fmt.Sprintf(`{"kernel": "matvec", "size": 16, "cube_dim": 3, "engine": "block",
		"faults": {"seed": 7, "loss_prob": 0.5,
			"crashes": [{"node": 1, "t": %g}],
			"checkpoint_steps": 2, "checkpoint_cost": 5, "restart_cost": 10}}`,
		base.Makespan/2)
	first := simulateBody(t, ts.URL+"/v1/simulate", body)
	if first.Makespan < base.Makespan {
		t.Fatalf("faults decreased makespan: %v < %v", first.Makespan, base.Makespan)
	}
	// ReplayTime is legitimately zero when the crash lands right after a
	// checkpoint, so only the always-positive counters are asserted.
	if first.Crashes != 1 || first.Retransmits == 0 || first.CheckpointTime == 0 {
		t.Fatalf("fault accounting missing: %+v", first)
	}
	// Fixed seed: the replayed request is bit-identical.
	second := simulateBody(t, ts.URL+"/v1/simulate", body)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same fault schedule diverged:\n%+v\n%+v", first, second)
	}
}

func TestSimulateDegradedCube(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := simulateBody(t, ts.URL+"/v1/simulate",
		`{"kernel": "matvec", "size": 16, "cube_dim": 3, "engine": "block"}`)
	if base.Degraded != nil {
		t.Fatalf("intact run reports degradation: %+v", base.Degraded)
	}

	got := simulateBody(t, ts.URL+"/v1/simulate",
		`{"kernel": "matvec", "size": 16, "cube_dim": 3, "engine": "block", "failed_nodes": [0, 5]}`)
	d := got.Degraded
	if d == nil {
		t.Fatal("failed_nodes run missing degraded info")
	}
	if len(d.FailedNodes) != 2 || d.MigratedBlocks == 0 || d.MaxMigrationHops != 1 {
		t.Fatalf("degraded info: %+v", d)
	}
	if d.MakespanInflation <= 0 {
		t.Fatalf("makespan inflation %v not computed", d.MakespanInflation)
	}
}

func TestSimulateFaultBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"loss prob out of range",
			`{"kernel": "matvec", "size": 8, "faults": {"loss_prob": 7}}`},
		{"crash node out of range",
			`{"kernel": "matvec", "size": 8, "cube_dim": 2, "faults": {"crashes": [{"node": 99, "t": 1}]}}`},
		{"link failure without mapping",
			`{"kernel": "matvec", "size": 8, "cube_dim": -1, "faults": {"link_failures": [{"a": 0, "b": 1, "t": 0}]}}`},
		{"contention without mapping",
			`{"kernel": "matvec", "size": 8, "cube_dim": -1, "contention": true}`},
		{"failed nodes without mapping",
			`{"kernel": "matvec", "size": 8, "cube_dim": -1, "failed_nodes": [0]}`},
		{"all nodes failed",
			`{"kernel": "matvec", "size": 8, "cube_dim": 1, "failed_nodes": [0, 1]}`},
		{"failed node out of range",
			`{"kernel": "matvec", "size": 8, "cube_dim": 2, "failed_nodes": [64]}`},
	}
	for _, c := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/simulate", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400; body %s", c.name, resp.Status, out)
		}
	}
}

// TestSimulateDegradedCrash: a crash on a degraded cube hands the crashed
// node's work to a surviving node, never to one named in failed_nodes or
// cut off by them (convolution/4 leaves node 4 empty, and failing 0, 5
// and 6 strands it), and a schedule that crashes every surviving node is
// a 400 that names the reason, as crashing every node of an intact cube
// is.
func TestSimulateDegradedCrash(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		body string
		idle []int // nodes that must run nothing
	}{
		{`{"kernel":"matvec","size":16,"cube_dim":3,"failed_nodes":[0],"trace":true,"faults":{"crashes":[{"node":1,"t":100}]}}`, []int{0}},
		{`{"kernel":"convolution","size":4,"cube_dim":3,"failed_nodes":[0,5,6],"trace":true,"faults":{"crashes":[{"node":1,"t":100}]}}`, []int{0, 4, 5, 6}},
	} {
		sr := simulateBody(t, ts.URL+"/v1/simulate", c.body)
		if sr.Crashes != 1 {
			t.Fatalf("%s: crashes = %d, want 1", c.body, sr.Crashes)
		}
		var events []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			Tid int     `json:"tid"`
		}
		if err := json.Unmarshal(sr.Trace, &events); err != nil {
			t.Fatal(err)
		}
		tookOver := false
		for _, e := range events {
			switch {
			case e.Ph != "X":
			case slices.Contains(c.idle, e.Tid):
				t.Fatalf("%s: event %+v runs on node %d", c.body, e, e.Tid)
			case e.Tid == 1 && e.Ts+e.Dur > 100:
				t.Fatalf("%s: event %+v runs on node 1 after its crash", c.body, e)
			case e.Ts >= 100:
				tookOver = true
			}
		}
		if !tookOver {
			t.Fatalf("%s: no work ran after the crash", c.body)
		}
	}

	for _, c := range []struct{ name, body string }{
		{"every survivor crashes", `{"kernel":"matvec","size":16,"cube_dim":2,"failed_nodes":[0],"faults":{"crashes":[{"node":1,"t":100},{"node":2,"t":100},{"node":3,"t":100}]}}`},
		{"every reachable survivor crashes", `{"kernel":"convolution","size":4,"cube_dim":3,"failed_nodes":[0,5,6],"faults":{"crashes":[{"node":1,"t":100},{"node":2,"t":100},{"node":3,"t":100},{"node":7,"t":100}]}}`},
		{"every node crashes", `{"kernel":"matvec","size":16,"cube_dim":2,"faults":{"crashes":[{"node":0,"t":100},{"node":1,"t":100},{"node":2,"t":100},{"node":3,"t":100}]}}`},
	} {
		resp, out := postJSON(t, ts.URL+"/v1/simulate", c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "no takeover node survives") {
			t.Errorf("%s: %s %s, want 400 naming the missing takeover node", c.name, resp.Status, out)
		}
	}
}
