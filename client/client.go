// Package client is the resilient Go client for loopmapd.
//
// It wraps the daemon's HTTP/JSON API (/v1/plan, /v1/simulate, /v1/spmd,
// /v1/kernels) with the retry discipline the server's admission control
// expects:
//
//   - every call takes a context and never outlives its deadline;
//   - 503 responses are retried after the server's Retry-After hint,
//     transport errors after capped exponential backoff with full jitter
//     (so a restarting daemon is ridden out, not hammered);
//   - a consecutive-failure circuit breaker fails fast while the daemon
//     is down and recovers through a single half-open probe;
//   - optionally, cache-hit-likely reads (/v1/plan, /v1/kernels) are
//     hedged: if the primary request hasn't answered within HedgeDelay, a
//     second identical request races it and the first response wins.
//
// Request and response types are aliases of the server's own, so the
// wire contract cannot drift from the daemon.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/pool"
)

// PeerStatus re-exports the cluster package's per-peer health record,
// which /v1/cluster reports and internal/cluster keeps out of reach of
// code outside this module.
type PeerStatus = cluster.PeerStatus

// APIError is a non-2xx response from the daemon, decoded from its JSON
// error envelope.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-side error text
	// ReadOnly marks a 503 carrying api.ReadOnlyHeader: the shard's
	// durable store latched read-only after a disk fault. The server is
	// healthy and cached reads still work there, but retrying this write
	// on the same endpoint cannot succeed — fail over instead.
	ReadOnly bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Config tunes a Client. The zero value works against a BaseURL.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (default: a plain http.Client;
	// per-call contexts bound every request, so no global timeout is
	// set). One that sets no Jar, Timeout or CheckRedirect has requests
	// sent straight through its Transport, unless the base URL carries
	// userinfo; any other sends through Client.Do.
	HTTPClient *http.Client

	// MaxRetries is how many times a retryable failure (503 or transport
	// error) is retried after the first attempt (default 4).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff (default 50ms); each
	// retry waits a uniformly random duration in (0, min(MaxBackoff,
	// BaseBackoff<<attempt)] — "full jitter". A server Retry-After hint
	// overrides the computed wait.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff window (default 2s).
	MaxBackoff time.Duration

	// HedgeDelay > 0 enables hedged reads on /v1/plan and /v1/kernels: a
	// duplicate request launches if the primary hasn't answered in this
	// long. Leave 0 for compute-heavy workloads — hedging a cold /v1/plan
	// doubles the work.
	HedgeDelay time.Duration

	// BreakerThreshold consecutive failures trip the circuit breaker
	// (default 5); BreakerCooldown is how long it stays open before
	// admitting a half-open probe (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// Revalidate enables the ETag cache on Plan: responses are remembered
	// with their strong ETag, repeats carry If-None-Match, and a 304
	// answers from the local copy — no response body on the wire. The
	// daemon's ETags are pure functions of the request, so entries stay
	// valid across server restarts. The cache keeps the 256 most
	// recently used entries.
	Revalidate bool
}

// revalidateCap bounds the Revalidate cache's entries.
const revalidateCap = 256

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// ClientStats is a point-in-time snapshot of a Client's behaviour.
type ClientStats struct {
	Requests  int64 // API calls made by the application
	Attempts  int64 // HTTP attempts (≥ Requests when retrying)
	Retries   int64 // attempts beyond the first
	Successes int64 // calls that returned a decoded response
	Failures  int64 // calls that returned an error

	Hedges    int64 // duplicate requests launched by hedging
	HedgeWins int64 // calls answered by the hedge, not the primary

	Revalidations int64 // Plan calls answered 304 from the local ETag cache

	RetryAfterHonored int64 // waits driven by a server Retry-After hint

	// BudgetExhausted counts calls terminated by an attempt budget
	// (WithAttemptBudget / MultiConfig.RetryBudget) running dry.
	BudgetExhausted int64

	BreakerOpens   int64        // times the breaker tripped open
	BreakerRejects int64        // calls failed fast with ErrBreakerOpen
	BreakerState   BreakerState // current state

	// Multi-endpoint counters, populated only by a Multi's aggregate
	// Stats (zero on single-endpoint clients).
	OwnerRouted  int64 // calls sent straight to the key's owner shard
	Failovers    int64 // attempts moved to another endpoint after a failure
	MapRefreshes int64 // shard-map fetches from /v1/cluster
	// EpochRefreshes counts map refreshes triggered by a response whose
	// map epoch disagreed with the local view (joins, leaves, deaths
	// learned from ordinary traffic).
	EpochRefreshes int64
	// ReadOnlySkips counts endpoints demoted after answering a write
	// with a read-only 503 (durable store latched after a disk fault).
	ReadOnlySkips int64
	// PerEndpoint breaks the counters down by endpoint base URL on a
	// Multi (nil otherwise).
	PerEndpoint map[string]ClientStats
}

// Client is a resilient loopmapd client. It is safe for concurrent use.
type Client struct {
	cfg     Config
	base    string
	targets map[string]*http.Request
	breaker *breaker
	reval   *revalCache // nil unless Config.Revalidate

	requests, attempts, retries atomic.Int64
	successes, failures         atomic.Int64
	hedges, hedgeWins           atomic.Int64
	retryAfterHonored           atomic.Int64
	breakerRejects              atomic.Int64
	revalidations               atomic.Int64
	budgetExhausted             atomic.Int64
}

// New builds a Client for the daemon at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:     cfg,
		base:    strings.TrimRight(cfg.BaseURL, "/"),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	c.targets = resolveTargets(c.base)
	if cfg.Revalidate {
		c.reval = newRevalCache(revalidateCap)
	}
	return c
}

// BaseURL is the normalized daemon root this client talks to.
func (c *Client) BaseURL() string { return c.base }

// Stats returns a snapshot of the client's counters and breaker state.
func (c *Client) Stats() ClientStats {
	state, opens := c.breaker.snapshot()
	return ClientStats{
		Requests:          c.requests.Load(),
		Attempts:          c.attempts.Load(),
		Retries:           c.retries.Load(),
		Successes:         c.successes.Load(),
		Failures:          c.failures.Load(),
		Hedges:            c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
		Revalidations:     c.revalidations.Load(),
		RetryAfterHonored: c.retryAfterHonored.Load(),
		BudgetExhausted:   c.budgetExhausted.Load(),
		BreakerOpens:      opens,
		BreakerRejects:    c.breakerRejects.Load(),
		BreakerState:      state,
	}
}

// Plan requests a plan for a built-in kernel. Hedged when HedgeDelay is
// set: plans are cached server-side, so a duplicate is usually a cheap
// cache hit. With Config.Revalidate, a remembered response's ETag rides
// along as If-None-Match and a 304 answers from the local copy.
func (c *Client) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	if c.reval == nil {
		var out api.PlanResponse
		if err := c.doJSON(ctx, http.MethodPost, "/v1/plan", req, &out, true); err != nil {
			return nil, err
		}
		return &out, nil
	}
	key := req.ResponseKey()
	// e is a copy of the remembered entry: a 304 vouches for the response
	// whose ETag the request carried, even if the cache has since
	// evicted or replaced it.
	e, _ := c.reval.get(key)
	var out api.PlanResponse
	etag, notModified, err := c.exchange(ctx, http.MethodPost, "/v1/plan", req, &out, true, e.hdr)
	if err != nil {
		return nil, err
	}
	if notModified {
		c.revalidations.Add(1)
		r := e.resp // copy; the cached response stays immutable
		r.Cache = api.CacheHit
		return &r, nil
	}
	if etag != "" {
		c.reval.put(key, etag, out)
	}
	return &out, nil
}

// Simulate plans and simulates a kernel. Never hedged: a cold simulate
// is the most expensive call the daemon serves.
func (c *Client) Simulate(ctx context.Context, req *api.SimulateRequest) (*api.SimulateResponse, error) {
	var out api.SimulateResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/simulate", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// SPMD compiles loop-DSL source into a parallel Go program.
func (c *Client) SPMD(ctx context.Context, req *api.SPMDRequest) (*api.SPMDResponse, error) {
	var out api.SPMDResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/spmd", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Kernels lists the daemon's built-in kernels. Hedged when HedgeDelay is
// set.
func (c *Client) Kernels(ctx context.Context) ([]api.KernelInfo, error) {
	var out []api.KernelInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/kernels", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// ClusterStatus fetches the daemon's shard-membership table. Outside
// cluster mode the daemon has no /v1/cluster route and this returns a
// 404 *APIError.
func (c *Client) ClusterStatus(ctx context.Context) (*api.ClusterStatus, error) {
	var out api.ClusterStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/cluster", nil, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes /readyz once — no retries, no breaker — and returns nil
// iff the daemon is accepting traffic. Meant for wait-until-up loops.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.send(ctx, http.MethodGet, "/readyz", nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: "not ready"}
	}
	return nil
}

// httpResult is one fully-read HTTP exchange.
type httpResult struct {
	status     int
	retryAfter time.Duration
	etag       string
	readOnly   bool // api.ReadOnlyHeader was set
	body       []byte
	buf        *[]byte // body's pooled buffer, until release
}

// doJSON runs one API call through the breaker + retry + hedging stack.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any, hedgeable bool) error {
	_, _, err := c.exchange(ctx, method, path, in, out, hedgeable, nil)
	return err
}

// exchange is doJSON plus conditional-request support: hdr, when
// non-nil, is the request's header map (a revalidation entry's, carrying
// If-None-Match), the response's ETag is returned, and a 304 reports
// notModified=true with out left untouched. A *api.PlanRequest body is
// encoded by api.AppendPlanRequest, any other by encoding/json. Each
// attempt's response body buffer goes back to the pool once the next
// attempt starts or exchange returns: by then the decode and any error
// text have copied what they keep out of it. The request body is never
// reused, since the transport may read it after RoundTrip returns.
func (c *Client) exchange(ctx context.Context, method, path string, in, out any, hedgeable bool, hdr http.Header) (etag string, notModified bool, err error) {
	c.requests.Add(1)
	var body []byte
	if pr, ok := in.(*api.PlanRequest); ok && pr != nil {
		// Encoded on the stack, then copied out at its size.
		var scratch [planRequestRoom]byte
		body = bytes.Clone(api.AppendPlanRequest(scratch[:0], pr))
	} else if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			c.failures.Add(1)
			return "", false, fmt.Errorf("client: encoding request: %w", err)
		}
	}

	budget := budgetFrom(ctx)
	var lastErr error
	var res httpResult
	defer func() { res.release() }()
	for attempt := 0; ; attempt++ {
		// Budget before breaker: an exhausted budget must not consume the
		// breaker's single half-open probe slot.
		if !budget.take() {
			c.budgetExhausted.Add(1)
			c.failures.Add(1)
			if lastErr != nil {
				return "", false, fmt.Errorf("%w (last failure: %v)", ErrBudgetExhausted, lastErr)
			}
			return "", false, ErrBudgetExhausted
		}
		probe, err := c.breaker.allow()
		if err != nil {
			budget.refund() // a fail-fast rejection never hit the wire
			c.breakerRejects.Add(1)
			c.failures.Add(1)
			if lastErr != nil {
				return "", false, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return "", false, err
		}
		c.attempts.Add(1)
		// A half-open probe must be exactly one request on the wire.
		res.release()
		res, err = c.attempt(ctx, method, path, body, hedgeable && !probe, hdr)

		// Classify. A 4xx means the server is healthy and we are wrong:
		// success for the breaker, terminal for the caller. 503 is the
		// server shedding load: failure, retryable. Other 5xx and
		// transport errors: failure; only transport errors are retryable
		// (a restarting daemon shows up as connection refused/reset).
		var retryable bool
		var retryAfter time.Duration
		switch {
		case err != nil:
			c.breaker.record(false)
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			retryable = true
		case res.status == http.StatusNotModified:
			// Only possible when we sent a validator: the server vouches our
			// copy is current. A success in every sense.
			c.breaker.record(true)
			c.successes.Add(1)
			return res.etag, true, nil
		case res.status == http.StatusServiceUnavailable && res.readOnly:
			// Read-only 503: the server is up (breaker success) but its
			// store cannot take writes, and no amount of retrying here
			// changes that. Terminal so Multi fails over immediately.
			c.breaker.record(true)
			c.failures.Add(1)
			return "", false, apiErrorFrom(&res)
		case res.status == http.StatusServiceUnavailable:
			c.breaker.record(false)
			lastErr = apiErrorFrom(&res)
			retryable = true
			retryAfter = res.retryAfter
		case res.status >= 500:
			c.breaker.record(false)
			c.failures.Add(1)
			return "", false, apiErrorFrom(&res)
		case res.status >= 300:
			c.breaker.record(true)
			c.failures.Add(1)
			return "", false, apiErrorFrom(&res)
		default:
			if out != nil {
				if err := decodeBody(res.body, out); err != nil {
					// A 2xx with an undecodable body is corruption, not
					// load: terminal, and a breaker failure.
					c.breaker.record(false)
					c.failures.Add(1)
					return "", false, fmt.Errorf("client: %s %s: decoding %d-byte response: %w", method, path, len(res.body), err)
				}
			}
			c.breaker.record(true)
			c.successes.Add(1)
			return res.etag, false, nil
		}

		if !retryable || attempt >= c.cfg.MaxRetries {
			c.failures.Add(1)
			return "", false, lastErr
		}
		wait := c.backoff(attempt, retryAfter)
		if retryAfter > 0 {
			c.retryAfterHonored.Add(1)
		}
		// Never sleep past the caller's deadline: if the wait cannot fit,
		// surface the last failure now instead of burning the remaining
		// budget asleep.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < wait {
			c.failures.Add(1)
			return "", false, fmt.Errorf("client: deadline too close to retry (%w): %w", context.DeadlineExceeded, lastErr)
		}
		c.retries.Add(1)
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			c.failures.Add(1)
			return "", false, fmt.Errorf("client: %w (last failure: %v)", ctx.Err(), lastErr)
		case <-t.C:
		}
	}
}

// backoff computes the wait before retry number attempt+1. A server
// Retry-After hint is honored as given; otherwise full jitter over an
// exponentially growing, capped window.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	window := c.cfg.BaseBackoff << uint(attempt)
	if window > c.cfg.MaxBackoff || window <= 0 {
		window = c.cfg.MaxBackoff
	}
	return time.Duration(rand.Int64N(int64(window))) + time.Millisecond
}

// attempt performs one (possibly hedged) exchange.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, hedgeable bool, hdr http.Header) (httpResult, error) {
	if !hedgeable || c.cfg.HedgeDelay <= 0 {
		return c.roundTrip(ctx, method, path, body, hdr)
	}

	type outcome struct {
		res    httpResult
		err    error
		hedged bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the losing request
	ch := make(chan outcome, 2)
	launch := func(hedged bool) {
		go func() {
			res, err := c.roundTrip(hctx, method, path, body, hdr)
			ch <- outcome{res, err, hedged}
		}()
	}
	launch(false)
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()

	budget := budgetFrom(ctx)
	pending, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			// A hedge is a whole extra request: it spends an attempt token
			// too, and when the budget is dry the primary races alone.
			if !hedged && budget.take() {
				hedged = true
				pending++
				c.hedges.Add(1)
				launch(true)
			}
		case o := <-ch:
			pending--
			if o.err == nil {
				if o.hedged {
					c.hedgeWins.Add(1)
				}
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if pending == 0 {
				return httpResult{}, firstErr
			}
		}
	}
}

// roundTrip is one HTTP exchange with the body fully read into a pooled
// buffer (see httpResult.release).
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, hdr http.Header) (httpResult, error) {
	resp, err := c.send(ctx, method, path, body, hdr)
	if err != nil {
		return httpResult{}, err
	}
	defer resp.Body.Close()
	buf := bodyPool.Get()
	data, err := readBody(resp, (*buf)[:0])
	if err != nil {
		bodyPool.Put(buf)
		return httpResult{}, fmt.Errorf("reading response: %w", err)
	}
	*buf = data
	return httpResult{
		status:     resp.StatusCode,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		etag:       resp.Header.Get("Etag"), // ETag's canonical form, which Get need not rebuild
		readOnly:   resp.Header.Get(api.ReadOnlyHeader) == "1",
		body:       data,
		buf:        buf,
	}, nil
}

// planRequestRoom is the stack room a plan request is encoded in,
// enough for a kernel, size, cube and a few options (the benchmark's
// requests take 60-70 bytes); a longer request grows onto the heap.
const planRequestRoom = 256

// Request header maps. Every request carries Content-Type when it has a
// body, and Accept-Encoding: identity, which keeps the transport from
// asking for gzip (and building a header map per request to say so);
// the daemon never compresses, so the answer is the same. The direct
// send path shares these maps, which nothing writes; Client.Do gets a
// copy, since a cookie jar adds to it.
var (
	jsonContentType = []string{"application/json"}
	identity        = []string{"identity"}
	getHeader       = http.Header{"Accept-Encoding": identity}
	postHeader      = http.Header{"Accept-Encoding": identity, "Content-Type": jsonContentType}
)

// revalHeader returns the header map of a /v1/plan request revalidating
// the response with the given ETag, which its cache entry keeps.
func revalHeader(etag string) http.Header {
	return http.Header{"Accept-Encoding": identity, "Content-Type": jsonContentType, "If-None-Match": {etag}}
}

// send sends one request for path and returns the response, whose body
// the caller closes. hdr is the header map; nil means getHeader or, with
// a body, postHeader.
//
// When direct allows it, send calls the HTTP client's Transport itself,
// skipping what Client.Do adds per request (its redirect bookkeeping and
// header copier) that such a client does not use. Errors are wrapped in
// *url.Error as Client.Do wraps them, and a redirect answer is sent again
// through Client.Do, which follows it. Otherwise Client.Do sends.
func (c *Client) send(ctx context.Context, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	if hdr == nil {
		hdr = getHeader
		if body != nil {
			hdr = postHeader
		}
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	hc := c.cfg.HTTPClient
	if direct(hc, req.URL) {
		req.Header = hdr
		rt := hc.Transport
		if rt == nil {
			rt = http.DefaultTransport
		}
		resp, err := rt.RoundTrip(req)
		if err == nil && resp == nil {
			err = fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", rt)
		}
		if err != nil {
			if tlsErr, ok := err.(tls.RecordHeaderError); ok && string(tlsErr.RecordHeader[:]) == "HTTP/" {
				err = http.ErrSchemeMismatch
			}
			return nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: req.URL.String(), Err: err}
		}
		if resp.Body == nil {
			resp.Body = http.NoBody
		}
		if !isRedirect(resp) {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if req, err = c.newRequest(ctx, method, path, body); err != nil {
			return nil, err
		}
	}
	req.Header = hdr.Clone()
	return hc.Do(req)
}

// direct reports whether a request to u through hc may skip Client.Do:
// hc sets no cookie jar, timeout or redirect policy, and u carries no
// userinfo for basic auth. That holds for the default HTTP client.
func direct(hc *http.Client, u *url.URL) bool {
	return hc.Jar == nil && hc.Timeout == 0 && hc.CheckRedirect == nil && u.User == nil
}

// isRedirect reports whether Client.Do would follow resp: a 301, 302,
// 303, 307 or 308 with a Location.
func isRedirect(resp *http.Response) bool {
	switch resp.StatusCode {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther, http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return resp.Header.Get("Location") != ""
	}
	return false
}

// apiPaths lists every path the client requests; New resolves each
// against the base URL once.
var apiPaths = [...]string{"/v1/plan", "/v1/batch", "/v1/simulate", "/v1/spmd", "/v1/kernels", "/v1/cluster", "/readyz"}

// resolveTargets builds a request for the base URL joined with every
// API path, as http.NewRequest would per call, for newRequest to copy. A
// base URL that does not parse yields no targets, so every call reports
// the parse error.
func resolveTargets(base string) map[string]*http.Request {
	targets := make(map[string]*http.Request, len(apiPaths))
	for _, p := range apiPaths {
		r, err := http.NewRequest(http.MethodGet, base+p, nil)
		if err != nil {
			return nil
		}
		targets[p] = r
	}
	return targets
}

// newRequest builds a request for path under the base URL, with body
// (none if nil) and no header map. A known path's request is a copy of
// its target, whose parsed URL every copy shares (requests only read
// it), so building one parses nothing; any other path, or a nil
// context, goes through http.NewRequestWithContext.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	t, ok := c.targets[path]
	if !ok || ctx == nil {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		return http.NewRequestWithContext(ctx, method, c.base+path, rd)
	}
	req := t.WithContext(ctx)
	req.Method, req.Header = method, nil
	if body != nil {
		// As http.NewRequest sets them for a *bytes.Reader: GetBody lets
		// the transport resend the body on a fresh connection.
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	return req, nil
}

// maxSizedBody caps the buffer readBody sizes up front from a response's
// Content-Length; longer bodies grow as their bytes actually arrive.
const maxSizedBody = 1 << 20

// bodyPool holds up to 16 response body buffers. A buffer larger than
// bodyPoolMax is dropped instead of pinned for later calls.
var bodyPool = pool.NewFree[[]byte](16)

const bodyPoolMax = 64 << 10

// readBody reads a whole response body onto buf, sized once when the
// length is declared and small.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		buf = slices.Grow(buf, int(n))[:n]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	b := bytes.NewBuffer(buf)
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// release returns the result's body buffer to the pool; the body must
// not be read afterwards. It is a no-op on a released or empty result.
func (r *httpResult) release() {
	if r.buf == nil {
		return
	}
	if cap(*r.buf) <= bodyPoolMax {
		bodyPool.Put(r.buf)
	}
	r.buf, r.body = nil, nil
}

// decodeBody decodes a 2xx response body into out. Plan responses go
// through the reflection-free api.DecodePlanResponse, falling back to
// encoding/json for anything it declines.
func decodeBody(b []byte, out any) error {
	if pr, ok := out.(*api.PlanResponse); ok && api.DecodePlanResponse(b, pr) {
		return nil
	}
	return json.Unmarshal(b, out)
}

// parseRetryAfter reads a delta-seconds Retry-After value (the only form
// the daemon emits). HTTP-date forms are ignored.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// apiErrorFrom decodes the daemon's JSON error envelope, falling back to
// the raw body.
func apiErrorFrom(res *httpResult) error {
	var env struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(res.body))
	if err := json.Unmarshal(res.body, &env); err == nil && env.Error != "" {
		msg = env.Error
	}
	if msg == "" {
		msg = http.StatusText(res.status)
	}
	return &APIError{Status: res.status, Message: msg, ReadOnly: res.readOnly}
}
