package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/serve"
)

// newTestClient points a Client with fast test timings at a handler.
func newTestClient(t *testing.T, h http.Handler, mutate func(*Config)) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cfg := Config{
		BaseURL:          ts.URL,
		MaxRetries:       4,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

func planReq() *api.PlanRequest {
	d := 3
	return &api.PlanRequest{Kernel: "l1", Size: 8, CubeDim: &d}
}

// TestAgainstRealServer: the client round-trips every endpoint against an
// actual serve.Server, proving the aliased wire types line up.
func TestAgainstRealServer(t *testing.T) {
	s := serve.New(serve.Config{})
	c := newTestClient(t, s.Handler(), nil)
	ctx := context.Background()

	plan, err := c.Plan(ctx, planReq())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Kernel != "l1" || plan.Blocks <= 0 {
		t.Fatalf("Plan returned %+v", plan)
	}

	sim, err := c.Simulate(ctx, &api.SimulateRequest{PlanRequest: *planReq()})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if sim.Makespan <= 0 {
		t.Fatalf("Simulate returned makespan %v", sim.Makespan)
	}

	spmd, err := c.SPMD(ctx, &api.SPMDRequest{Source: "for i = 0 to 7\nfor j = 0 to 7\n{\n A[i+1, j+1] = A[i+1, j] + B[i, j]\n}\n"})
	if err != nil {
		t.Fatalf("SPMD: %v", err)
	}
	if spmd.Source == "" {
		t.Fatal("SPMD returned empty program")
	}

	ks, err := c.Kernels(ctx)
	if err != nil {
		t.Fatalf("Kernels: %v", err)
	}
	if len(ks) == 0 {
		t.Fatal("Kernels returned none")
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}

	st := c.Stats()
	if st.Requests != 4 || st.Successes != 4 || st.Failures != 0 {
		t.Fatalf("stats after clean run: %+v", st)
	}

	// A bad request is terminal — no retries, breaker stays closed.
	if _, err := c.Plan(ctx, &api.PlanRequest{Kernel: "no-such-kernel", Size: 8}); err == nil {
		t.Fatal("Plan accepted an unknown kernel")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("unknown kernel error = %v, want APIError 400", err)
		}
	}
	if st := c.Stats(); st.Retries != 0 || st.BreakerState != BreakerClosed {
		t.Fatalf("4xx must not retry or trip the breaker: %+v", st)
	}
}

// TestRetryHonorsRetryAfter: on 503 the client waits the server's
// Retry-After hint — not its own (much shorter) jittered backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstAt, secondAt atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			firstAt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error": "overloaded", "code": 503}`)
		default:
			secondAt.Store(time.Now().UnixNano())
			fmt.Fprint(w, `{"kernel": "l1", "size": 8, "blocks": 4, "cache": "hit"}`)
		}
	})
	c := newTestClient(t, h, nil)

	plan, err := c.Plan(context.Background(), planReq())
	if err != nil {
		t.Fatalf("Plan after 503: %v", err)
	}
	if plan.Cache != api.CacheHit {
		t.Fatalf("decoded cache = %q", plan.Cache)
	}
	gap := time.Duration(secondAt.Load() - firstAt.Load())
	if gap < 1*time.Second {
		t.Fatalf("retry after %v, want ≥ the 1s Retry-After hint", gap)
	}
	st := c.Stats()
	if st.Retries != 1 || st.RetryAfterHonored != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetryBacksOffWithoutHint: 503s with no Retry-After retry under the
// client's own jittered backoff until success.
func TestRetryBacksOffWithoutHint(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"kernel": "l1"}`)
	})
	c := newTestClient(t, h, func(cfg *Config) { cfg.BreakerThreshold = 100 })
	if _, err := c.Plan(context.Background(), planReq()); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4", got)
	}
	if st := c.Stats(); st.Retries != 3 || st.RetryAfterHonored != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetriesExhaust: a persistently unavailable server eventually
// surfaces the 503 as an APIError after MaxRetries+1 attempts.
func TestRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.MaxRetries = 2
		cfg.BreakerThreshold = 100 // keep the breaker out of this test
	})
	_, err := c.Plan(context.Background(), planReq())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestBreakerOpensAndRecovers drives the full breaker cycle: trip on
// consecutive failures, fail fast while open, half-open probe after the
// cooldown, close on probe success.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"kernel": "l1"}`)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.MaxRetries = 0 // isolate the breaker from the retry loop
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = time.Hour // opened stays opened until we say so
	})
	// Deterministic clock for the cooldown.
	now := time.Unix(0, 0)
	var mu sync.Mutex
	c.breaker.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Plan(ctx, planReq()); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if st := c.Stats(); st.BreakerState != BreakerOpen || st.BreakerOpens != 1 {
		t.Fatalf("after 3 failures: %+v", st)
	}

	// Open: fails fast without touching the server.
	before := calls.Load()
	if _, err := c.Plan(ctx, planReq()); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	if st := c.Stats(); st.BreakerRejects != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Cooldown elapses; the server is still broken: the probe fails and
	// the breaker re-opens (a second trip).
	advance(2 * time.Hour)
	if _, err := c.Plan(ctx, planReq()); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("half-open probe was rejected")
	}
	if st := c.Stats(); st.BreakerState != BreakerOpen || st.BreakerOpens != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}

	// Server recovers; next probe closes the breaker.
	failing.Store(false)
	advance(2 * time.Hour)
	if _, err := c.Plan(ctx, planReq()); err != nil {
		t.Fatalf("probe against recovered server: %v", err)
	}
	if st := c.Stats(); st.BreakerState != BreakerClosed {
		t.Fatalf("after successful probe: %+v", st)
	}
	// And stays closed for normal traffic.
	if _, err := c.Plan(ctx, planReq()); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
}

// TestHalfOpenAdmitsSingleProbe: concurrent callers hitting a half-open
// breaker produce exactly one server request; the rest fail fast.
func TestHalfOpenAdmitsSingleProbe(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		<-release // park the probe so the others race the half-open slot
		fmt.Fprint(w, `{"kernel": "l1"}`)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.MaxRetries = 0
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = time.Nanosecond // immediately half-open
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		c.Plan(ctx, planReq())
	}

	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Plan(ctx, planReq())
		}(i)
	}
	// Release the parked probe only after every other racer has been
	// rejected — makes the one-probe assertion deterministic.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if c.Stats().BreakerRejects == racers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("racers never drained: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var probes, rejects int
	for _, err := range errs {
		switch {
		case err == nil:
			probes++
		case errors.Is(err, ErrBreakerOpen):
			rejects++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if probes != 1 || rejects != racers-1 {
		t.Fatalf("probes = %d, rejects = %d, want 1 and %d", probes, rejects, racers-1)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4 (3 trips + 1 probe)", got)
	}
}

// TestNeverExceedsDeadline: with the server pinning every request and
// hinting long retries, the call returns within (a small margin of) its
// context deadline instead of sleeping through it.
func TestNeverExceedsDeadline(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.MaxRetries = 100
	})
	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	_, err := c.Plan(ctx, planReq())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Plan succeeded against a dead server")
	}
	// The wait-doesn't-fit guard fires on the first retry decision, well
	// before the deadline itself.
	if elapsed > deadline {
		t.Fatalf("call took %v, exceeding its %v deadline", elapsed, deadline)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want it to wrap context.DeadlineExceeded", err)
	}
}

// TestDeadlineCancelsSleep: a context cancelled mid-backoff wakes the
// client immediately.
func TestDeadlineCancelsSleep(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	c := newTestClient(t, h, func(cfg *Config) { cfg.MaxRetries = 100 })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Plan(ctx, planReq())
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancel took %v to take effect", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
}

// TestHedgedReads: when the primary request stalls, the hedge answers
// and the call returns fast.
func TestHedgedReads(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Primary: stall until the client gives up on us.
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		fmt.Fprint(w, `{"kernel": "l1", "cache": "hit"}`)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
	})
	start := time.Now()
	plan, err := c.Plan(context.Background(), planReq())
	if err != nil {
		t.Fatalf("hedged Plan: %v", err)
	}
	if plan.Cache != api.CacheHit {
		t.Fatalf("got %+v", plan)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged call took %v — the hedge did not win", elapsed)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCorruptResponseIsTerminal: a 2xx with a garbage body must not be
// silently accepted or retried into a different answer.
func TestCorruptResponseIsTerminal(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, `{"kernel": "l1", "size":`) // truncated JSON
	})
	c := newTestClient(t, h, nil)
	if _, err := c.Plan(context.Background(), planReq()); err == nil {
		t.Fatal("corrupt body accepted")
	}
	if calls.Load() != 1 {
		t.Fatalf("corrupt responses were retried %d times", calls.Load()-1)
	}
}

// TestConcurrentClients hammers one Client from many goroutines against
// a flaky server — exercised under -race by CI.
func TestConcurrentClients(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%5 == 0 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "blip", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"kernel": "l1"}`)
	})
	c := newTestClient(t, h, func(cfg *Config) {
		cfg.HedgeDelay = 5 * time.Millisecond
		cfg.BreakerThreshold = 50
	})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, errs[i] = c.Plan(ctx, planReq())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Requests != 32 || st.Successes != 32 {
		t.Fatalf("stats: %+v", st)
	}
}
