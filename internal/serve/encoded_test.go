package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	loopmap "repro"
	"repro/api"
	"repro/internal/persist"
)

func TestEncodedHitAndETag304(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`

	resp1, out1 := postJSON(t, ts.URL+"/v1/plan", body)
	etag := resp1.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"p`) {
		t.Fatalf("miss response carries no strong ETag: %q", etag)
	}
	if !bytes.Contains(out1, []byte(`"cache":"miss"`)) {
		t.Fatalf("first response: %s", out1)
	}

	resp2, out2 := postJSON(t, ts.URL+"/v1/plan", body)
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("hit ETag %q != miss ETag %q", got, etag)
	}
	// Byte-identical modulo the cache outcome: the hit is the cached frame
	// with a different suffix patched in.
	want := bytes.Replace(out1, []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
	if !bytes.Equal(out2, want) {
		t.Fatalf("hit differs from miss beyond the cache field:\n%s\nvs\n%s", out2, want)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match with matching tag: status %d, want 304", resp3.StatusCode)
	}
	if b, _ := io.ReadAll(resp3.Body); len(b) != 0 {
		t.Fatalf("304 carried a body: %s", b)
	}
	if got := resp3.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// A stale tag revalidates to a full 200.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(body))
	req2.Header.Set("If-None-Match", `"stale"`)
	resp4, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp4.StatusCode)
	}

	m := s.Metrics()
	if m.EncodedHits < 2 {
		t.Fatalf("encoded hits = %d, want >= 2", m.EncodedHits)
	}
	if m.NotModified != 1 {
		t.Fatalf("304s = %d, want 1", m.NotModified)
	}
	if m.RespCacheCount != 1 || m.RespCacheBytes <= 0 {
		t.Fatalf("resp cache entries=%d bytes=%d, want 1 entry with positive bytes",
			m.RespCacheCount, m.RespCacheBytes)
	}
	if m.EncodedBytes <= 0 || m.BytesServed < m.EncodedBytes {
		t.Fatalf("bytes served=%d encoded=%d: accounting is off", m.BytesServed, m.EncodedBytes)
	}
}

// The ETag is a pure function of the request — two independent daemons
// (a restart, in effect) agree on it, so client revalidation survives a
// cold start.
func TestETagStableAcrossRestarts(t *testing.T) {
	body := `{"kernel": "matmul", "size": 8, "cube_dim": 3}`
	var tags [2]string
	for i := range tags {
		_, ts := newTestServer(t, Config{})
		resp, _ := postJSON(t, ts.URL+"/v1/plan", body)
		tags[i] = resp.Header.Get("ETag")
	}
	if tags[0] == "" || tags[0] != tags[1] {
		t.Fatalf("ETags across restarts: %q vs %q", tags[0], tags[1])
	}
}

func TestEtagMatch(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{`"p01"`, true},
		{`*`, true},
		{`"other", "p01"`, true},
		{`"other"`, false},
		{``, false},
		{`W/"p01"`, true},
		{`"other", W/"p01"`, true},
		{`W/"other"`, false},
	} {
		if got := etagMatch(tc.header, `"p01"`); got != tc.want {
			t.Errorf("etagMatch(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestRespCacheEviction(t *testing.T) {
	c := newRespCache(600)
	big := &respFrame{prefix: bytes.Repeat([]byte("x"), 200), etag: `"p"`}
	c.put("a", big)
	c.put("b", big)
	c.get("a") // a is now most recently used
	c.put("c", big)
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry c was evicted")
	}
	if b, n := c.stats(); n != 2 || b > 600+int64(big.size()) {
		t.Fatalf("stats after eviction: %d entries, %d bytes", n, b)
	}
}

func (f *respFrame) size() int { return len(f.prefix) + len(f.etag) }

// TestHitPathAllocDrop bounds what the encoded hit path allocates per
// request, handler and recorder included, at its measured count: 16
// allocs/op, 17 under the race detector. (Rebuilding the plan and
// marshaling its response struct, the path before the encoded cache,
// took about twice that.)
func TestHitPathAllocDrop(t *testing.T) {
	s := New(Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	warm := httptest.NewServer(s.Handler())
	defer warm.Close()
	postJSON(t, warm.URL+"/v1/plan", body) // populate both caches

	hit := testing.AllocsPerRun(100, func() {
		rec := httptest.NewRecorder()
		hr, _ := http.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
		s.handlePlan(rec, hr)
	})
	bound := 16.0
	if raceEnabled {
		bound = 17
	}
	t.Logf("allocs/op: encoded hit %.0f", hit)
	if hit > bound {
		t.Fatalf("encoded hit path allocates %.0f/op, want at most %.0f", hit, bound)
	}
}

// discardResponse is a reusable ResponseWriter for benchmarks: header
// map allocated once, writes discarded. The harness must not dominate
// the handler being measured.
type discardResponse struct {
	h    http.Header
	code int
	n    int
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}
func (d *discardResponse) WriteHeader(c int) { d.code = c }

// benchRequest builds one reusable request whose body can be rewound.
func benchRequest(b *testing.B, body string) (*http.Request, *strings.Reader) {
	b.Helper()
	rd := strings.NewReader(body)
	hr, err := http.NewRequest(http.MethodPost, "/v1/plan", io.NopCloser(rd))
	if err != nil {
		b.Fatal(err)
	}
	return hr, rd
}

// BenchmarkHitPathEncoded measures the full handler on a warm encoded
// cache; BenchmarkHitPathLegacy reconstructs the pre-frame hit path
// (remap + response build + marshal) for comparison. The acceptance bar
// is >= 5x lower ns/op for the encoded path.
func BenchmarkHitPathEncoded(b *testing.B) {
	s := New(Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	warm := httptest.NewServer(s.Handler())
	defer warm.Close()
	if _, err := http.Post(warm.URL+"/v1/plan", "application/json", strings.NewReader(body)); err != nil {
		b.Fatal(err)
	}
	hr, rd := benchRequest(b, body)
	rec := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		rec.code = 0
		s.handlePlan(rec, hr)
		if rec.code != http.StatusOK {
			b.Fatalf("status %d", rec.code)
		}
	}
}

// BenchmarkHitPathLegacy reproduces the pre-frame hit handler end to
// end: read body, strict decode, validate, plan-cache lookup, remap onto
// the cube, build the response struct, and marshal it — what every hit
// paid before the encoded cache existed.
func BenchmarkHitPathLegacy(b *testing.B) {
	s := New(Config{})
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	var warm api.PlanRequest
	if err := json.Unmarshal([]byte(body), &warm); err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := s.basePlan(context.Background(), &warm); err != nil {
		b.Fatal(err)
	}
	_, rd := benchRequest(b, body)
	rec := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		raw, err := io.ReadAll(rd)
		if err != nil {
			b.Fatal(err)
		}
		var r2 api.PlanRequest
		if err := decodeJSONBytes(raw, &r2); err != nil {
			b.Fatal(err)
		}
		if err := s.validatePlanRequest(&r2); err != nil {
			b.Fatal(err)
		}
		var resp *api.PlanResponse
		if _, err := s.usePlan(context.Background(), &r2, func(p2 *loopmap.Plan) error {
			resp = buildPlanResponse(&r2, p2)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		resp.Cache = api.CacheHit
		out, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		rec.Write(out)
	}
}

func BenchmarkRespFrameWrite(b *testing.B) {
	s := New(Config{})
	f := newRespFrame([]byte(fmt.Sprintf(`{"kernel":"l1","pad":%q}`+"\n", bytes.Repeat([]byte("x"), 256))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		hr, _ := http.NewRequest(http.MethodPost, "/v1/plan", nil)
		s.writeFrame(rec, hr, f, api.CacheHit, "k", true)
	}
}

// TestRespCacheBudgetBelowOneIsDefault: a RespCacheBytes ≤ 0 means the
// default budget, never "no encoded cache". A shard built that way
// ingests a replica frame into the encoded cache, serves /v1/plan for its
// key from there, and walks the frame in the epoch sweep and the
// keyspace transfer — each of which runs on a background goroutine in a
// live cluster, where a panic would kill the daemon.
func TestRespCacheBudgetBelowOneIsDefault(t *testing.T) {
	const token = "tok"
	s, ts := newTestServer(t, Config{RespCacheBytes: -1, AdminToken: token})
	opts := ClusterOptions{SelfID: 0, Peers: []string{ts.URL}}
	opts.ProbeInterval = -1
	opts.AntiEntropyInterval = -1
	if err := s.EnableCluster(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	var req api.PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	frame := persist.Record{
		Key:   repFramePrefix + req.ResponseKey(),
		Value: []byte(`{"kernel":"l1","size":8,"planted":true}` + "\n"),
	}
	if n := s.ingestRecords([]persist.Record{frame}); n != 1 {
		t.Fatalf("ingested %d records, want 1", n)
	}

	resp, out := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(`"planted":true,"cache":"hit"`)) {
		t.Fatalf("plan for the ingested key: %s %s", resp.Status, out)
	}
	if m := s.Metrics(); m.EncodedHits != 1 || m.PlanComputations != 0 {
		t.Fatalf("encoded hits %d, computations %d; want 1 and 0", m.EncodedHits, m.PlanComputations)
	}

	s.cnode().rep.sweepOwned()

	treq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/transfer", strings.NewReader(`{"for_shard": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	treq.Header.Set(api.AdminTokenHeader, token)
	tresp, err := http.DefaultClient.Do(treq)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("transfer: status %s", tresp.Status)
	}
	recs, err := persist.ReadRecords(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != frame.Key || !bytes.Equal(recs[0].Value, frame.Value) {
		t.Fatalf("transfer streamed %+v, want the ingested frame", recs)
	}
}

// TestTransferKeepsSendersWarmestFrames: a keyspace transfer streams
// more frames than the receiver's RespCacheBytes holds. The receiver
// inserts them in stream order, so the stream must carry the sender's
// frames least-recently-used first: then the receiver keeps the sender's
// most recently used frames, and evicts the rest.
func TestTransferKeepsSendersWarmestFrames(t *testing.T) {
	const token = "tok"
	s, ts := newTestServer(t, Config{AdminToken: token})
	opts := ClusterOptions{SelfID: 0, Peers: []string{ts.URL}}
	opts.ProbeInterval = -1
	opts.AntiEntropyInterval = -1
	if err := s.EnableCluster(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const keys, warm = 40, 10
	bodies := make([]string, keys)
	ekeys := make([]string, keys)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"kernel": "l1", "size": %d, "cube_dim": 2}`, 8+i)
		var req api.PlanRequest
		if err := json.Unmarshal([]byte(bodies[i]), &req); err != nil {
			t.Fatal(err)
		}
		ekeys[i] = req.ResponseKey()
		postJSON(t, ts.URL+"/v1/plan", bodies[i])
	}
	// Hits on the first keys make them the sender's most recently used.
	var budget int64
	for i := range warm {
		if _, out := postJSON(t, ts.URL+"/v1/plan", bodies[i]); !bytes.Contains(out, []byte(`"cache":"hit"`)) {
			t.Fatalf("%s: %s, want a hit", bodies[i], out)
		}
		f, _ := s.resp.get(ekeys[i])
		budget += frameBytes(ekeys[i], f)
	}

	treq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/transfer", strings.NewReader(`{"for_shard": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	treq.Header.Set(api.AdminTokenHeader, token)
	tresp, err := http.DefaultClient.Do(treq)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	recs, err := persist.ReadRecords(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The receiver's encoded cache holds exactly the warm frames.
	r := New(Config{RespCacheBytes: budget})
	if n := r.ingestRecords(recs); n != 2*keys {
		t.Fatalf("ingested %d records, want %d base records and frames", n, 2*keys)
	}
	for i, k := range ekeys {
		if _, ok := r.resp.get(k); ok != (i < warm) {
			t.Fatalf("frame %d of %d (%d most recently used) held by the receiver: %v, want %v", i, keys, warm, ok, i < warm)
		}
	}
}
