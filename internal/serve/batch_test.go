package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/api"
)

func postBatch(t *testing.T, url string, req api.BatchRequest) (*http.Response, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, url+"/v1/batch", string(body))
	var br api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(out, &br); err != nil {
			t.Fatalf("decode batch envelope: %v: %s", err, out)
		}
	}
	return resp, br
}

func planItem(body string) api.BatchItem {
	var pr api.PlanRequest
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		panic(err)
	}
	return api.BatchItem{Plan: &pr}
}

func TestBatchMixedPlanSimulate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	three := 3
	req := api.BatchRequest{Items: []api.BatchItem{
		planItem(`{"kernel": "l1", "size": 8, "cube_dim": 3}`),
		{Simulate: &api.SimulateRequest{
			PlanRequest: api.PlanRequest{Kernel: "l1", Size: 8, CubeDim: &three},
			Sequential:  true,
		}},
		planItem(`{"kernel": "matmul", "size": 6, "cube_dim": 2}`),
	}}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(br.Results))
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, res.Status, res.Error)
		}
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(br.Results[0].Body, &pr); err != nil {
		t.Fatalf("item 0 body: %v: %s", err, br.Results[0].Body)
	}
	if pr.Blocks != 9 || pr.Procs != 8 {
		t.Fatalf("item 0: blocks=%d procs=%d, want 9 and 8", pr.Blocks, pr.Procs)
	}
	if br.Results[0].ETag == "" {
		t.Fatal("plan item carries no ETag")
	}
	var sr api.SimulateResponse
	if err := json.Unmarshal(br.Results[1].Body, &sr); err != nil {
		t.Fatalf("item 1 body: %v: %s", err, br.Results[1].Body)
	}
	if sr.Makespan <= 0 || sr.Speedup <= 0 {
		t.Fatalf("simulate item: makespan=%g speedup=%g", sr.Makespan, sr.Speedup)
	}
	if br.Results[1].ETag != "" {
		t.Fatal("simulate item unexpectedly carries an ETag")
	}

	m := s.Metrics()
	if m.BatchItems != 3 {
		t.Fatalf("batch_items = %d, want 3", m.BatchItems)
	}
	if m.BatchSize.Count != 1 {
		t.Fatalf("batch_size count = %d, want 1", m.BatchSize.Count)
	}
}

// Per-item failures never fail siblings: the envelope is 200, the bad
// items carry their own statuses, and the good items are served.
func TestBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	pr := api.PlanRequest{Kernel: "l1", Size: 8}
	req := api.BatchRequest{Items: []api.BatchItem{
		planItem(`{"kernel": "l1", "size": 8, "cube_dim": 3}`),
		planItem(`{"kernel": "no-such-kernel", "size": 8, "cube_dim": 3}`),
		planItem(`{"kernel": "l1", "size": 9999, "cube_dim": 3}`),
		{}, // neither plan nor simulate
		{Plan: &pr, Simulate: &api.SimulateRequest{}}, // both
		planItem(`{"kernel": "l1", "size": 4, "grouping_choice": 9}`),
	}}
	resp, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 despite bad items", resp.StatusCode)
	}
	if br.Results[0].Status != http.StatusOK {
		t.Fatalf("good item: status %d (%s)", br.Results[0].Status, br.Results[0].Error)
	}
	for i := 1; i < len(req.Items); i++ {
		if br.Results[i].Status != http.StatusBadRequest {
			t.Fatalf("bad item %d: status %d, want 400 (%s)", i, br.Results[i].Status, br.Results[i].Error)
		}
		if br.Results[i].Error == "" {
			t.Fatalf("bad item %d carries no error message", i)
		}
		if len(br.Results[i].Body) != 0 {
			t.Fatalf("bad item %d carries a body: %s", i, br.Results[i].Body)
		}
	}
}

// Duplicate canonical keys in one batch compute the base plan exactly
// once — they collapse into one group and share the cache line.
func TestBatchDupKeysComputeOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var items []api.BatchItem
	for i := 0; i < 16; i++ {
		// Same canonical key throughout; half vary the cube so the encoded
		// frames differ while the base plan is still shared.
		items = append(items, planItem(fmt.Sprintf(`{"kernel": "l1", "size": 8, "cube_dim": %d}`, 2+i%2)))
	}
	resp, br := postBatch(t, ts.URL, api.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, res.Status, res.Error)
		}
	}
	if m := s.Metrics(); m.PlanComputations != 1 {
		t.Fatalf("computations = %d, want 1 for 16 duplicate-key items", m.PlanComputations)
	}
}

// A batched plan item's body is byte-identical to the single-request
// response for the same request, modulo the trailing newline the single
// response's encoder appends.
func TestBatchByteIdenticalToSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"kernel": "matmul", "size": 8, "cube_dim": 3}`

	resp, br := postBatch(t, ts.URL, api.BatchRequest{Items: []api.BatchItem{planItem(body)}})
	if resp.StatusCode != http.StatusOK || br.Results[0].Status != http.StatusOK {
		t.Fatalf("batch failed: %d / %+v", resp.StatusCode, br.Results[0])
	}

	// A fresh server serves the same request as a single call; both are
	// first computations, so even the cache outcome agrees.
	_, ts2 := newTestServer(t, Config{})
	hresp, single := postJSON(t, ts2.URL+"/v1/plan", body)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("single status = %d", hresp.StatusCode)
	}
	if want := bytes.TrimSuffix(single, []byte("\n")); !bytes.Equal(br.Results[0].Body, want) {
		t.Fatalf("batch body differs from single response:\n%s\nvs\n%s", br.Results[0].Body, want)
	}
	if hresp.Header.Get("ETag") != br.Results[0].ETag {
		t.Fatalf("batch ETag %q != single ETag %q", br.Results[0].ETag, hresp.Header.Get("ETag"))
	}
}

// The hand-rolled envelope encoder must be indistinguishable from
// encoding/json marshaling the same BatchResponse.
func TestBatchEnvelopeEncoding(t *testing.T) {
	results := []api.BatchItemResult{
		{Status: 200, ETag: `"p00deadbeef00"`, Body: json.RawMessage(`{"kernel":"l1","blocks":9}`)},
		{Status: 400, Error: `serve: size 9999 out of range [1, 128]`},
		{Status: 200, Body: json.RawMessage(`{"makespan":12.5}`)},
		{Status: 503, Error: "quoted \"error\" with\nnewline"},
		{Status: 500, Error: "<b>&</b> \"q\" \x01\x1f\t\u2028 \xff"},
	}
	var buf bytes.Buffer
	encodeBatchResponse(&buf, results)
	want, err := json.Marshal(api.BatchResponse{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("hand-rolled envelope differs:\n%s\nvs\n%s", buf.Bytes(), want)
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 4})
	if resp, _ := postJSON(t, ts.URL+"/v1/batch", `{"items": []}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	var items []api.BatchItem
	for i := 0; i < 5; i++ {
		items = append(items, planItem(`{"kernel": "l1", "size": 8, "cube_dim": 3}`))
	}
	if resp, _ := postBatch(t, ts.URL, api.BatchRequest{Items: items}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, want 400", resp.StatusCode)
	}
}

// Many distinct keys fan out across workers; run under -race this is the
// batch path's concurrency check.
func TestBatchDistinctKeysParallel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var items []api.BatchItem
	for size := 4; size < 16; size++ {
		items = append(items, planItem(fmt.Sprintf(`{"kernel": "l1", "size": %d, "cube_dim": 3}`, size)))
	}
	resp, br := postBatch(t, ts.URL, api.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, res.Status, res.Error)
		}
	}
	if m := s.Metrics(); m.PlanComputations != int64(len(items)) {
		t.Fatalf("computations = %d, want %d", m.PlanComputations, len(items))
	}
}
