package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/serve"
)

// sendRun is one client's run of a parity case: the handler serving it
// and what the server saw.
type sendRun struct {
	h     http.Handler
	calls atomic.Int64
	mu    sync.Mutex
	seen  []string // per request: method, path and the headers the client sets
}

// sendOutcome is everything a parity case compares between the two send
// paths.
type sendOutcome struct {
	resp  any
	err   string
	apiEr *APIError
	stats ClientStats
	seen  []string
}

// TestSendPathParity runs each case once through the direct send path
// (an http.Client with no jar, timeout or redirect policy) and once
// through Client.Do (forced by an http.Client with a Timeout, which the
// case never reaches), against one httptest server, and requires the
// same response, error text, *APIError, counters and request headers.
func TestSendPathParity(t *testing.T) {
	var cur atomic.Pointer[sendRun]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		run := cur.Load()
		run.calls.Add(1)
		run.mu.Lock()
		run.seen = append(run.seen, fmt.Sprintf("%s %s ct=%q ae=%q inm=%q", r.Method, r.URL.Path,
			r.Header.Get("Content-Type"), r.Header.Get("Accept-Encoding"), r.Header.Get("If-None-Match")))
		run.mu.Unlock()
		run.h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	refused := httptest.NewServer(http.NotFoundHandler())
	refusedURL := refused.URL
	refused.Close()

	plan := func(ctx context.Context, c *Client) (any, error) { return c.Plan(ctx, planReq()) }
	cases := []struct {
		name    string
		baseURL string
		handler func(run *sendRun) http.Handler
		mutate  func(*Config)
		timeout time.Duration // the call's context deadline from now; negative: already expired
		call    func(context.Context, *Client) (any, error)
	}{
		{name: "connection refused", baseURL: refusedURL, call: plan},
		{
			name: "503 with Retry-After",
			handler: func(run *sendRun) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					// A hint-less 503 retries on backoff; the second one's
					// 1 s hint cannot fit the call's deadline.
					if run.calls.Load() > 1 {
						w.Header().Set("Retry-After", "1")
					}
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprint(w, `{"error":"overloaded","code":503}`)
				})
			},
			timeout: 500 * time.Millisecond,
			call:    plan,
		},
		{
			name: "read-only 503",
			handler: func(*sendRun) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Retry-After", "1")
					w.Header().Set(api.ReadOnlyHeader, "1")
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprint(w, `{"error":"serve: durable store degraded, writes disabled","code":503}`)
				})
			},
			call: plan,
		},
		{
			name:    "304 revalidation",
			handler: func(*sendRun) http.Handler { return serve.New(serve.Config{}).Handler() },
			mutate:  func(cfg *Config) { cfg.Revalidate = true },
			call: func(ctx context.Context, c *Client) (any, error) {
				if _, err := c.Plan(ctx, planReq()); err != nil {
					return nil, err
				}
				return c.Plan(ctx, planReq())
			},
		},
		{
			name:    "expired context",
			handler: func(*sendRun) http.Handler { return serve.New(serve.Config{}).Handler() },
			timeout: -time.Second,
			call:    plan,
		},
		{
			name: "hedged race",
			handler: func(run *sendRun) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if run.calls.Load() == 1 {
						// The primary stalls until the client abandons it,
						// which the server sees once the body is read.
						io.Copy(io.Discard, r.Body)
						select {
						case <-r.Context().Done():
						case <-time.After(5 * time.Second):
						}
						return
					}
					fmt.Fprint(w, `{"kernel":"l1","size":8,"blocks":9,"cache":"hit"}`)
				})
			},
			mutate: func(cfg *Config) { cfg.HedgeDelay = 10 * time.Millisecond },
			call:   plan,
		},
		{
			name:    "kernels and ready",
			handler: func(*sendRun) http.Handler { return serve.New(serve.Config{}).Handler() },
			call: func(ctx context.Context, c *Client) (any, error) {
				if err := c.Ready(ctx); err != nil {
					return nil, err
				}
				return c.Kernels(ctx)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2]sendOutcome
			for i, hc := range []*http.Client{{}, {Timeout: time.Hour}} {
				run := &sendRun{h: http.NotFoundHandler()}
				if tc.handler != nil {
					run.h = tc.handler(run)
				}
				cur.Store(run)
				cfg := Config{BaseURL: ts.URL, HTTPClient: hc, MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
				if tc.baseURL != "" {
					cfg.BaseURL = tc.baseURL
				}
				if tc.mutate != nil {
					tc.mutate(&cfg)
				}
				c := New(cfg)
				if got, want := direct(hc, c.targets["/v1/plan"].URL), i == 0; got != want {
					t.Fatalf("client %d sends directly: %v, want %v", i, got, want)
				}
				ctx := context.Background()
				if tc.timeout != 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.timeout)
					defer cancel()
				}
				resp, err := tc.call(ctx, c)
				o := &outs[i]
				o.resp, o.stats = resp, c.Stats()
				if err != nil {
					o.err = err.Error()
					errors.As(err, &o.apiEr)
				}
				run.mu.Lock()
				o.seen = append([]string(nil), run.seen...)
				run.mu.Unlock()
			}
			direct, viaDo := outs[0], outs[1]
			t.Logf("response %+v, error %q, stats %+v, requests %q", direct.resp, direct.err, direct.stats, direct.seen)
			if !reflect.DeepEqual(direct, viaDo) {
				t.Fatalf("direct send and Client.Do differ:\ndirect %+v\nDo     %+v", direct, viaDo)
			}
		})
	}
}

// TestSendFallbacks: a client whose http.Client sets a cookie jar, a
// timeout or a redirect policy, or whose base URL carries userinfo,
// sends through Client.Do, which adds basic auth and cookies and follows
// a 307 with the request body. The direct client follows it too: it
// sends the request again through Client.Do, so the server sees it once
// more.
func TestSendFallbacks(t *testing.T) {
	var auths, bodies, cookies []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		user, pass, _ := r.BasicAuth()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading request body: %v", err)
		}
		cookie, _ := r.Cookie("s")
		mu.Lock()
		auths = append(auths, user+":"+pass)
		bodies = append(bodies, string(body))
		cookies = append(cookies, fmt.Sprint(cookie != nil))
		mu.Unlock()
		if r.URL.RawQuery == "" {
			http.SetCookie(w, &http.Cookie{Name: "s", Value: "1"})
			http.Redirect(w, r, "/v1/plan?moved=1", http.StatusTemporaryRedirect)
			return
		}
		fmt.Fprint(w, `{"kernel":"l1","size":8,"blocks":9,"cache":"hit"}`)
	}))
	defer ts.Close()
	withUser, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	withUser.User = url.UserPassword("user", "secret")
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := planReq()
	wantBody := string(api.AppendPlanRequest(nil, want))
	for _, row := range []struct {
		name    string
		hc      *http.Client
		baseURL string
		direct  bool
		sends   int    // requests the server sees
		auth    string // the basic auth every request carries
		cookie  string // whether the redirected request carries the cookie
	}{
		{name: "direct", hc: &http.Client{}, direct: true, sends: 3, auth: ":", cookie: "false"},
		{name: "jar", hc: &http.Client{Jar: jar}, sends: 2, auth: ":", cookie: "true"},
		{name: "timeout", hc: &http.Client{Timeout: time.Minute}, sends: 2, auth: ":", cookie: "false"},
		{name: "check redirect", hc: &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return nil }}, sends: 2, auth: ":", cookie: "false"},
		{name: "userinfo", hc: &http.Client{}, baseURL: withUser.String(), sends: 2, auth: "user:secret", cookie: "false"},
	} {
		t.Run(row.name, func(t *testing.T) {
			mu.Lock()
			auths, bodies, cookies = nil, nil, nil
			mu.Unlock()
			base := ts.URL
			if row.baseURL != "" {
				base = row.baseURL
			}
			c := New(Config{BaseURL: base, HTTPClient: row.hc})
			if got := direct(row.hc, c.targets["/v1/plan"].URL); got != row.direct {
				t.Fatalf("sends directly: %v, want %v", got, row.direct)
			}
			resp, err := c.Plan(context.Background(), want)
			if err != nil || resp.Blocks != 9 {
				t.Fatalf("Plan = %+v, %v; want the redirected answer", resp, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(auths) != row.sends {
				t.Fatalf("server saw %d requests, want %d", len(auths), row.sends)
			}
			for i := range auths {
				if auths[i] != row.auth || bodies[i] != wantBody {
					t.Errorf("request %d: basic auth %q, body %q; want %q, %q", i, auths[i], bodies[i], row.auth, wantBody)
				}
			}
			if last := cookies[len(cookies)-1]; last != row.cookie {
				t.Errorf("redirected request carries the cookie: %s, want %s", last, row.cookie)
			}
		})
	}
}
