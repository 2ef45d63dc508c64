package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// readOnlyShard answers every /v1/plan with the degraded-store contract:
// 503 + Retry-After + api.ReadOnlyHeader.
func readOnlyShard(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/plan" {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set(api.ReadOnlyHeader, "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"serve: durable store degraded, writes disabled","code":503}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// A read-only 503 must be terminal on that endpoint (no per-endpoint
// retries — the store stays read-only no matter how often we ask) and
// must fail the call over to the next endpoint.
func TestReadOnly503FailsOverWithoutRetry(t *testing.T) {
	ro, roHits := readOnlyShard(t)
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/plan" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kernel":"matmul","size":4}`))
	}))
	defer ok.Close()

	clock := time.Unix(1000, 0)
	m, err := NewMulti(MultiConfig{
		Endpoints: []string{ro.URL, ok.URL},
		Config:    Config{MaxRetries: 4},
		Clock:     func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &api.PlanRequest{Kernel: "matmul", Size: 4}

	// Force the read-only endpoint first, regardless of the round-robin
	// cursor: keep calling until it has been hit at least once.
	var got *api.PlanResponse
	for i := 0; i < 2 && roHits.Load() == 0; i++ {
		r, err := m.Plan(context.Background(), req)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		got = r
	}
	if got == nil || got.Kernel != "matmul" {
		t.Fatalf("expected a response from the healthy endpoint, got %+v", got)
	}
	if n := roHits.Load(); n != 1 {
		t.Fatalf("read-only endpoint got %d attempts, want exactly 1 (terminal, no retries)", n)
	}
	if st := m.Stats(); st.ReadOnlySkips == 0 {
		t.Fatalf("expected ReadOnlySkips > 0, stats: %+v", st)
	}

	// While inside the TTL window the read-only endpoint is demoted to
	// last for keyed calls: more plans must not touch it again.
	for i := 0; i < 4; i++ {
		if _, err := m.Plan(context.Background(), req); err != nil {
			t.Fatalf("Plan during demotion: %v", err)
		}
	}
	if n := roHits.Load(); n != 1 {
		t.Fatalf("demoted endpoint was tried again (%d hits)", n)
	}

	// Past the TTL the demotion lapses — the endpoint is eligible again
	// (the deterministic clock is the only thing that moved).
	clock = clock.Add(16 * time.Second)
	if m.isReadOnly(0) {
		t.Fatal("demotion should have expired with the clock advance")
	}
}

// The APIError surfaced by a read-only 503 carries the ReadOnly flag, so
// single-endpoint callers can branch on it too.
func TestReadOnlyAPIErrorFlag(t *testing.T) {
	ro, _ := readOnlyShard(t)
	c := New(Config{BaseURL: ro.URL, MaxRetries: 3})
	_, err := c.Plan(context.Background(), &api.PlanRequest{Kernel: "matmul", Size: 4})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if !apiErr.ReadOnly || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want ReadOnly 503, got %+v", apiErr)
	}
	if st := c.Stats(); st.Attempts != 1 {
		t.Fatalf("read-only 503 should be terminal after one attempt, got %d", st.Attempts)
	}
}
