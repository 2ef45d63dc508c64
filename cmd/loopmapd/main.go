// Command loopmapd serves the Sheu–Tai planning pipeline over HTTP/JSON.
//
//	loopmapd -addr :8080
//
// Endpoints:
//
//	POST /v1/plan      plan a kernel (cached, deduplicated, deadline-bounded)
//	POST /v1/simulate  plan + simulate, optional Chrome trace
//	POST /v1/spmd      compile loop-DSL source to a parallel Go program
//	GET  /v1/kernels   list built-in kernels
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining)
//	GET  /metrics      Prometheus text exposition
//
// SIGTERM/SIGINT flips /readyz to draining and shuts the listener down
// gracefully, letting in-flight requests finish up to -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 64, "plan cache budget in MiB")
	inflight := flag.Int("inflight", 0, "max concurrent plan computations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "largest per-request deadline a client may ask for")
	maxSize := flag.Int64("max-size", 128, "largest kernel size parameter accepted")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown grace period")
	diskCacheDir := flag.String("disk-cache-dir", "", "durable plan store directory: the cache warm-starts from it and survives crashes, evicted plans demote to indexed segments and promote back on touch instead of recomputing, and restart replays only the WAL tail (empty = ephemeral)")
	diskCacheGB := flag.Float64("disk-cache-gb", 0, "disk-cache segment budget in GiB; compaction evicts oldest segments past it (0 = unbounded)")
	compactTrigger := flag.Int("compact-trigger", 0, "L0 segments that accumulate before the disk cache compacts (0 = default 4)")
	diskMemtableKB := flag.Int64("disk-memtable-kb", 0, "disk-cache memtable flush threshold in KiB (0 = default 4096); harnesses shrink it to force segment churn")
	fsync := flag.String("fsync", "interval", "WAL durability policy: always (concurrent writes share one group-commit fsync), interval, never")
	scrubInterval := flag.Duration("scrub-interval", 0, "background storage-scrub period (0 = 1m default, negative disables)")
	scrubRateMB := flag.Int64("scrub-rate-mb", 0, "scrub read-bandwidth throttle in MiB/s (0 = 8 default)")
	respCacheMB := flag.Int64("resp-cache-mb", 16, "encoded-response cache budget in MiB (0 = 16 default)")
	maxBatch := flag.Int("max-batch", 0, "largest /v1/batch item count accepted (0 = 256 default)")
	peers := flag.String("peers", "", "comma-separated shard base URLs, self included — enables cluster mode")
	shardID := flag.Int("shard-id", 0, "this daemon's shard ID: its index in -peers and its hypercube address")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "cluster peer health-probe period")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe failures that mark a peer dead")
	antiEntropy := flag.Duration("antientropy-interval", 3*time.Second, "digest anti-entropy exchange period with the standby (negative disables)")
	adminToken := flag.String("admin-token", "", "token gating /v1/admin/* (join, leave, drain, transfer); empty leaves admin endpoints unmounted")
	joinSeed := flag.String("join", "", "base URL of a live cluster member to join dynamically (instead of -peers)")
	advertise := flag.String("advertise", "", "this daemon's base URL as peers should reach it (required with -join)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	smoke := flag.Bool("smoke", false, "start on an ephemeral port, serve one self-issued /v1/plan request, and exit")
	flag.Parse()
	if *scrubRateMB < 0 || *respCacheMB < 0 {
		fmt.Fprintln(os.Stderr, "loopmapd: -scrub-rate-mb and -resp-cache-mb must not be negative")
		os.Exit(1)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := serve.New(serve.Config{
		CacheBytes:        *cacheMB << 20,
		MaxInflight:       *inflight,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxKernelSize:     *maxSize,
		DiskCacheDir:      *diskCacheDir,
		DiskCacheBytes:    int64(*diskCacheGB * (1 << 30)),
		CompactTrigger:    *compactTrigger,
		DiskMemtableBytes: *diskMemtableKB << 10,
		Fsync:             *fsync,
		ScrubInterval:     *scrubInterval,
		ScrubRate:         *scrubRateMB << 20,
		RespCacheBytes:    *respCacheMB << 20,
		MaxBatchItems:     *maxBatch,
		AdminToken:        *adminToken,
		Logger:            logger,
	})
	rs, err := srv.Recover(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rs.Enabled {
		logger.Info("warm start",
			"disk_cache_dir", *diskCacheDir,
			"recovered", rs.Recovered,
			"skipped", rs.Skipped,
			"rejected", rs.Rejected,
			"frames", rs.FrameRecords,
			"wal_records", rs.WALRecords,
			"dropped_tail_bytes", rs.DroppedTailBytes,
			"tail_err", fmt.Sprint(rs.TailErr),
			"dur_ms", rs.Elapsed.Milliseconds(),
		)
	}

	if *joinSeed != "" && *peers != "" {
		fmt.Fprintln(os.Stderr, "loopmapd: -join and -peers are mutually exclusive")
		os.Exit(1)
	}
	if *joinSeed != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "loopmapd: -join requires -advertise")
		os.Exit(1)
	}

	peerOpts := serve.PeerOptions{
		ProbeInterval:       *probeInterval,
		FailThreshold:       *failThreshold,
		AntiEntropyInterval: *antiEntropy,
	}
	if *peers != "" {
		var urls []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				urls = append(urls, p)
			}
		}
		if err := srv.EnableCluster(serve.ClusterOptions{
			SelfID:      *shardID,
			Peers:       urls,
			PeerOptions: peerOpts,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := srv.ClusterMembership()
		logger.Info("cluster mode", "shard", m.Self(), "n", m.N(), "dim", m.Dim())
	}

	handler := withPprof(srv.Handler(), *pprofOn)

	if *smoke {
		if err := runSmoke(srv, handler, *drain); err != nil {
			fmt.Fprintln(os.Stderr, "smoke:", err)
			os.Exit(1)
		}
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Dynamic join runs alongside the listener: the joiner must answer
	// peer probes and gossip while it streams its keyspace from current
	// owners, so the join protocol cannot complete before serving starts.
	if *joinSeed != "" {
		go func() {
			if err := srv.JoinCluster(ctx, serve.JoinOptions{
				SeedURL:      *joinSeed,
				AdvertiseURL: *advertise,
				AdminToken:   *adminToken,
				PeerOptions:  peerOpts,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			m := srv.ClusterMembership()
			logger.Info("cluster mode", "shard", m.Self(), "n", m.N(), "dim", m.Dim())
		}()
	}

	if err := serveUntil(ctx, srv, handler, ln, *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// withPprof optionally mounts net/http/pprof in front of the API
// handler. Opt-in only: the profiling endpoints expose internals and
// cost CPU, so production deployments leave them off.
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveUntil runs the HTTP server until ctx is cancelled, then drains:
// /readyz flips to 503 first so load balancers stop routing, and in-flight
// requests get up to drainTimeout to finish.
func serveUntil(ctx context.Context, srv *serve.Server, handler http.Handler, ln net.Listener, drainTimeout time.Duration, logger *slog.Logger) error {
	// The hardened listener: header/read/idle timeouts against slowloris
	// and dead keep-alive peers.
	hs := serve.NewHTTPServer(handler, serve.ServerTimeouts{})
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "grace", drainTimeout)
	srv.SetDraining()
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Flush and close the durable store only after in-flight requests
	// have finished appending to it.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("closing plan store: %w", err)
	}
	logger.Info("drained")
	return nil
}

// runSmoke exercises the full serving path in-process: bind an ephemeral
// port, issue one real /v1/plan request over TCP, print the response, and
// shut down cleanly. This is what `make serve` and the command test run.
func runSmoke(srv *serve.Server, handler http.Handler, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveUntil(ctx, srv, handler, ln, drainTimeout, slog.New(slog.NewTextHandler(io.Discard, nil)))
	}()

	url := "http://" + ln.Addr().String() + "/v1/plan"
	body := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		cancel()
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		return fmt.Errorf("POST /v1/plan: %s: %s", resp.Status, out)
	}
	fmt.Printf("POST /v1/plan -> %s\n%s", resp.Status, out)
	cancel()
	return <-done
}
