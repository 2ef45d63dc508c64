package client

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// BenchmarkPlanHitRoundTrip times one Plan call against an in-process
// daemon over loopback on a warmed key: request encode, HTTP exchange,
// the daemon's encoded-cache hit and the response decode. Allocations
// count both sides, since they share the process.
func BenchmarkPlanHitRoundTrip(b *testing.B) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	req := planReq()
	if _, err := c.Plan(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Plan(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
