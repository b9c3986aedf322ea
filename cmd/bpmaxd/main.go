// Command bpmaxd serves BPMax folds over HTTP/JSON: the network front door
// of the serving spine (pipeline → admission → cache → engine/pool) that
// the library's Session wires together.
//
// Endpoints:
//
//	POST /v1/fold    {"seq1","seq2","timeout_ms","structure"}   one interaction fold
//	POST /v1/batch   {"items":[{"name","seq1","seq2"}]}         a screening batch
//	POST /v1/scan    {"seq1","seq2","w1","w2","timeout_ms"}     windowed (banded) scan
//	GET  /v1/cache                                              cache introspection
//	GET  /healthz                                               200 serving / 503 draining
//	GET  /metrics                                               MetricsSnapshot JSON
//	GET  /metrics/prom                                          Prometheus text exposition
//	GET  /debug/requests                                        recent + slowest request traces
//	GET  /debug/pprof/                                          net/http/pprof
//
// Observability: every /v1 request carries an X-Request-ID (honored from
// the client or minted), a Server-Timing header with the per-stage latency
// breakdown, and a structured access-log record (-log-format text|json);
// the last -trace-ring requests and the slowest -trace-slowest are kept
// for /debug/requests and dumped as Chrome trace-event JSON to -trace-out
// on drain. See docs/OBSERVABILITY.md.
//
// Wire contract: per-request deadlines (timeout_ms, capped by -max-timeout)
// and client disconnects map onto the fold's context; a full admission
// queue is 429 with Retry-After derived from live queue depth; a draining
// server is 503. SIGTERM/SIGINT trigger the graceful drain: stop accepting,
// finish every in-flight request, release the session, exit 0. See
// docs/SERVING_HTTP.md.
//
// Usage:
//
//	bpmaxd -addr :8642 -cache 256MB -admit 8 -admit-queue 64
//	bpmaxd -addr 127.0.0.1:0 -addr-file /tmp/bpmaxd.addr   # random port, written to a file
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/cliflags"
	"github.com/bpmax-go/bpmax/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bpmaxd:", err)
		os.Exit(1)
	}
}

// gcHeadroom is the garbage the collector may accumulate above a full
// result cache before it runs; see cacheGCPercent.
const gcHeadroom = 64 << 20

// cacheGCPercent paces the garbage collector against a result-cache budget.
// A full cache is long-lived heap, and at the runtime's default GOGC=100
// the heap grows to twice the live set before each collection, so a 128MB
// cache alone costs about 256MB of resident memory (the max-plus screen
// benchmark workload read 294MB). Scaling GOGC to gcHeadroom/(budget +
// gcHeadroom) keeps the collector's headroom near gcHeadroom whatever the
// budget. The cached tables are pointer-free, so the extra collections
// mark little. A GOGC set in the environment wins over this default.
func cacheGCPercent(budget int64) int {
	return max(10, int(100*gcHeadroom/(budget+gcHeadroom)))
}

// run serves until ctx is cancelled (signal) and the drain completes.
func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("bpmaxd", flag.ContinueOnError)
	serving := cliflags.NewServing()
	serving.Register(fs)
	addr := fs.String("addr", ":8642", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	reqTimeout := fs.Duration("request-timeout", 0, "default per-request deadline when the body has no timeout_ms (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap any requested timeout_ms at this duration (0 = uncapped)")
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
	scanWindow := fs.Int("scan-window", 64, "window span used when a scan request omits w1/w2")
	batchWorkers := fs.Int("batch-workers", 0, "worker budget per /v1/batch request (0 = all CPUs)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long the SIGTERM drain waits for in-flight requests before giving up")
	foldMetrics := fs.Bool("fold-metrics", false,
		"instrument every fold (per-phase timings in /metrics); instrumented folds bypass the result cache, so leave off when -cache should serve repeats")
	traceRequests := fs.Bool("trace-requests", true, "per-request tracing: X-Request-ID, Server-Timing stage breakdowns, /debug/requests ring")
	traceRing := fs.Int("trace-ring", 128, "how many recent request traces /debug/requests retains")
	traceSlowest := fs.Int("trace-slowest", 32, "how many slowest-since-startup request traces /debug/requests retains")
	traceOut := fs.String("trace-out", "", "write the retained request traces as Chrome trace-event JSON to this file on drain")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	accessLog := fs.Bool("access-log", true, "log one structured record per /v1 request")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(logw, nil)
	case "json":
		handler = slog.NewJSONHandler(logw, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	comps, err := serving.Build()
	if err != nil {
		return err
	}
	defer comps.Close()
	if budget, _ := cliflags.ParseBytes(serving.Cache); budget > 0 && os.Getenv("GOGC") == "" {
		defer debug.SetGCPercent(debug.SetGCPercent(cacheGCPercent(budget)))
	}
	options := comps.Options
	var mtr *bpmax.Metrics
	if *foldMetrics {
		mtr = bpmax.NewMetrics()
		options = append(options, bpmax.WithMetrics(mtr))
	}
	session, err := bpmax.NewSession(options...)
	if err != nil {
		return err
	}
	defer session.Close()

	cfg := serverConfig{
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBody:        *maxBody,
		ScanWindow:     *scanWindow,
		BatchWorkers:   *batchWorkers,
		TraceRequests:  *traceRequests,
		TraceRing:      *traceRing,
		TraceSlowest:   *traceSlowest,
	}
	if *accessLog {
		cfg.Logger = logger
	}
	srv := newServer(session, comps, mtr, cfg)
	publishExpvar(srv.snapshot)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	httpSrv := &http.Server{Handler: srv.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: flip health to 503, let every in-flight request
	// finish (http.Server.Shutdown waits for active handlers), then drain
	// and release the session. Requests arriving during the drain are
	// refused by the closed listener or answered 503 by the closed session.
	logger.Info("draining")
	srv.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %d requests still in flight after %v: %w",
			srv.inFlight.Load(), *drainTimeout, err)
	}
	if err := session.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("session drain: %w", err)
	}
	if *traceOut != "" && srv.ring != nil {
		if err := dumpTraces(*traceOut, srv.ring); err != nil {
			logger.Error("trace-out", "path", *traceOut, "err", err.Error())
		} else {
			logger.Info("trace-out written", "path", *traceOut)
		}
	}
	st := srv.serverStats()
	logger.Info("drained",
		"requests", st.Requests, "ok", st.OK, "shed", st.Shed,
		"unavailable", st.Unavailable, "in_flight", st.InFlight)
	if st.InFlight != 0 {
		return fmt.Errorf("drain dropped %d in-flight requests", st.InFlight)
	}
	return nil
}

// dumpTraces writes the ring's retained traces (the recent window, then
// any slowest-N entries that already rotated out of it) as one Chrome
// trace-event file.
func dumpTraces(path string, ring *trace.Ring) error {
	rs := ring.Snapshot()
	snaps := rs.Recent
	have := make(map[string]bool, len(snaps))
	for _, s := range snaps {
		have[s.ID] = true
	}
	for _, s := range rs.Slowest {
		if !have[s.ID] {
			snaps = append(snaps, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, snaps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expvarOnce guards the process-wide expvar registration: run may be
// invoked more than once (tests), Publish panics on duplicates.
var (
	expvarOnce sync.Once
	expvarSnap func() bpmax.MetricsSnapshot
	expvarMu   sync.Mutex
)

// publishExpvar exposes the observability snapshot at /debug/vars under
// the "bpmax" key, next to the standard memstats. Re-registration (tests)
// swaps the snapshot source instead of panicking.
func publishExpvar(snapshot func() bpmax.MetricsSnapshot) {
	expvarMu.Lock()
	expvarSnap = snapshot
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("bpmax", expvar.Func(func() any {
			expvarMu.Lock()
			f := expvarSnap
			expvarMu.Unlock()
			if f == nil {
				return nil
			}
			return f()
		}))
	})
}
