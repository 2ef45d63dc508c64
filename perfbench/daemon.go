package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/serve"
)

// clients is the closed-loop client count: each client is one goroutine
// with one connection, and waits for its answer before sending again.
const clients = 2

// daemon is one in-process loopmapd on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	tracer *tracer // nil on untraced runs
	done   chan struct{}
}

// startDaemon runs serve.New → Recover → listen and returns once /readyz
// answers 200, along with that elapsed time.
func startDaemon(ctx context.Context, cfg serve.Config, tr *tracer) (*daemon, time.Duration, error) {
	start := time.Now()
	srv := serve.New(cfg)
	if _, err := srv.Recover(ctx); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("recovering daemon: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), tracer: tr, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(l) // returns http.ErrServerClosed on stop
	}()
	probe := client.New(client.Config{BaseURL: d.url})
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for probe.Ready(rctx) != nil {
		if rctx.Err() != nil {
			d.stop()
			return nil, 0, fmt.Errorf("daemon never became ready: %w", rctx.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return d, time.Since(start), nil
}

// stop closes the listener and connections, waits for the serve loop to
// exit, and closes the durable store.
func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.done
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClients builds the closed-loop clients, each on its own one-connection
// transport. On traced runs each transport tags its requests with the
// client's index so the handler wrapper can hand back that request's
// handler time.
func (d *daemon) newClients() []*client.Client {
	out := make([]*client.Client, clients)
	for i := range out {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if d.tracer != nil {
			rt = &tagTransport{worker: strconv.Itoa(i), tr: d.tracer, base: rt}
		}
		out[i] = client.New(client.Config{BaseURL: d.url, HTTPClient: &http.Client{Transport: rt}})
	}
	return out
}

// workerHeader carries the client index on traced requests.
const workerHeader = "X-Perfbench-Worker"

type tagTransport struct {
	worker string
	tr     *tracer
	base   http.RoundTripper
}

func (t *tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.tr.on.Load() {
		r = r.Clone(r.Context())
		r.Header.Set(workerHeader, t.worker)
	}
	return t.base.RoundTrip(r)
}

// tracer times the daemon's handler from outside: it wraps
// Server.Handler() and, while on, records each /v1/plan call's handler
// time, status and response bytes.
type tracer struct {
	on atomic.Bool

	mu       sync.Mutex
	handler  []time.Duration
	requests int64
	shed     int64 // 503 answers carrying Retry-After
	bytes    int64

	// last[w] is the handler time of client w's latest traced request and
	// seq[w] counts them, so the client can pair it with its round trip.
	last [clients]atomic.Int64
	seq  [clients]atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/plan" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		t.mu.Lock()
		t.handler = append(t.handler, d)
		t.requests++
		t.bytes += cw.bytes
		if cw.code == http.StatusServiceUnavailable && cw.Header().Get("Retry-After") != "" {
			t.shed++
		}
		t.mu.Unlock()
		if i, err := strconv.Atoi(r.Header.Get(workerHeader)); err == nil && i >= 0 && i < clients {
			t.last[i].Store(int64(d))
			t.seq[i].Add(1)
		}
	})
}

// tracedRequests is what the wrapper recorded while on.
type tracedRequests struct {
	handler               []time.Duration
	requests, shed, bytes int64
}

// snapshot copies the recorded figures; a handler abandoned by a timed-out
// client may still be recording.
func (t *tracer) snapshot() tracedRequests {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tracedRequests{append([]time.Duration(nil), t.handler...), t.requests, t.shed, t.bytes}
}

// handlerTime returns the handler time of client w's request that
// completed after seq reached after, waiting briefly for the wrapper to
// record it (the response can reach the client before the wrapper's
// bookkeeping runs).
func (t *tracer) handlerTime(w int, after int64) (time.Duration, bool) {
	for i := 0; i < 1000; i++ {
		if t.seq[w].Load() > after {
			return time.Duration(t.last[w].Load()), true
		}
		time.Sleep(10 * time.Microsecond)
	}
	return 0, false
}
