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

// TestPlanHitRoundTripAllocs bounds what one Plan call on a warmed key
// allocates over loopback, client and in-process daemon together, at its
// measured count: 78 allocs/op. Under the race detector, whose sync.Pool
// drops a random share of what net/http pools, it measures 83, so the
// bound there is 84. (91 when requests went through Client.Do with a
// per-request header map, the body through encoding/json and every
// request body through http.MaxBytesReader.)
func TestPlanHitRoundTripAllocs(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	req := planReq()
	if _, err := c.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	bound := 78.0
	if raceEnabled {
		bound = 84
	}
	t.Logf("allocs/op: Plan hit round trip %.0f", allocs)
	if allocs > bound {
		t.Fatalf("a Plan hit round trip allocates %.0f/op, want at most %.0f", allocs, bound)
	}
}
