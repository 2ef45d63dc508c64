package api_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/serve"
)

// hitHotBodies returns the daemon's /v1/plan answers to the benchmark's
// 64 hit-hot keys (every built-in kernel at sizes 4–18, cube dimensions
// 2–4), each as a second request receives it: an encoded-cache hit.
func hitHotBodies(b *testing.B) [][]byte {
	kernels := []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular", "closure", "matmul", "sor2d"}
	h := serve.New(serve.Config{}).Handler()
	bodies := make([][]byte, 64)
	for i := range bodies {
		cube := 2 + i%3
		req, err := json.Marshal(&api.PlanRequest{Kernel: kernels[i%len(kernels)], Size: int64(4 + i/len(kernels)*2), CubeDim: &cube, MergeFactor: 1})
		if err != nil {
			b.Fatal(err)
		}
		for range 2 {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(req)))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: %d %s", req, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.Bytes()
		}
	}
	return bodies
}

// BenchmarkDecodePlanResponse decodes the 64 hit-hot answers in turn
// with api.DecodePlanResponse, as the client does on every hit; it
// reports the mean body size.
func BenchmarkDecodePlanResponse(b *testing.B) {
	bodies := hitHotBodies(b)
	n := 0
	for _, body := range bodies {
		var r api.PlanResponse
		if !api.DecodePlanResponse(body, &r) || r.Cache != api.CacheHit {
			b.Fatalf("declined or not a hit: %s", body)
		}
		n += len(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r api.PlanResponse
	for i := 0; i < b.N; i++ {
		api.DecodePlanResponse(bodies[i%len(bodies)], &r)
	}
	b.ReportMetric(float64(n)/float64(len(bodies)), "B/body")
}
