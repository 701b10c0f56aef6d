// Command diffd serves structural diffing as a network service: an
// HTTP/JSON daemon around the diffing engine, one engine per served
// language, running each request's diff on the request's own goroutine
// once one of its language's -workers slots is free, with per-tenant
// admission control, queue backpressure (429 + Retry-After when
// saturated), and graceful drain on SIGINT/SIGTERM.
//
//	diffd                              # serve every language on :8347
//	diffd -addr :9000 -langs exp       # one language, custom port
//	diffd -workers 8 -diff-timeout 2s  # engine tuning
//	diffd -trace diffs.jsonl -trace-max-bytes 64000000 -slow 50ms
//	diffd -log-format json -spans      # structured logs + span export
//
// Endpoints (wire schema and a curl session in docs/SERVICE.md):
//
//	POST /v1/diff      one pair (S-exprs or refs), versioned JSON
//	GET  /v1/snapshot  per-language engine counters
//	GET  /metrics      Prometheus text exposition (service + engines)
//	GET  /debug/diffz  flight recorder: recent + slowest diffs (JSON/HTML)
//	GET  /healthz      liveness: 200 while the process serves HTTP
//	GET  /readyz       readiness: 503 when draining, lame-duck, or saturated
//
// On SIGTERM the daemon first goes lame-duck for -drain-grace: /readyz
// answers 503 (load balancers stop routing here) while requests still
// serve. Then it drains: running diffs complete, waiting and new
// requests are answered with a clean 503, and the process exits 0. The
// wait for running diffs is bounded by -drain-timeout; on expiry diffd
// exits without waiting for them.
//
// Exit status: 0 after a clean drain, 1 on a serve error, 2 on bad usage.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/diffserve"
	"repro/internal/telemetry"
)

// jsonlSpans exports completed spans as one JSON object per line. Request
// goroutines end spans concurrently, so the encoder is serialized.
type jsonlSpans struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (s *jsonlSpans) SpanEnd(sp *telemetry.Span) {
	s.mu.Lock()
	_ = s.enc.Encode(sp)
	s.mu.Unlock()
}

func main() {
	var (
		addr          = flag.String("addr", ":8347", "listen address")
		langs         = flag.String("langs", "", "comma-separated languages to serve (default: all registered)")
		workers       = flag.Int("workers", 0, "max diffs running at once per language (0 = GOMAXPROCS)")
		diffTimeout   = flag.Duration("diff-timeout", 5*time.Second, "per-diff deadline (0 disables)")
		maxQueue      = flag.Int("max-queue", 256, "server-wide bound on pending jobs, waiting or running, across all languages (saturation threshold)")
		tenantLimit   = flag.Int("tenant-limit", 32, "per-tenant concurrent request cap (X-Diffd-Tenant header; -1 disables)")
		slow          = flag.Duration("slow", 0, "log diffs at or above this wall time (0 disables)")
		tracePath     = flag.String("trace", "", "append one JSONL trace record per diff to this file")
		traceMaxBytes = flag.Int64("trace-max-bytes", 0, "rotate the -trace (and -spans) file past this size, keeping one .1 predecessor (0 disables)")
		spansPath     = flag.String("spans", "", "append one JSON span per line to this file (enables distributed tracing)")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		sloWindow     = flag.Duration("slo-window", 0, "rolling SLO window (0 = 1h default)")
		sloObjective  = flag.Duration("slo-objective", 0, "per-request latency objective for SLO attainment (0 = 250ms default)")
		drainGrace    = flag.Duration("drain-grace", 0, "lame-duck period after SIGTERM: /readyz answers 503 while requests still serve, before the drain begins")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM")
		listLangs     = flag.Bool("list-langs", false, "print the registered languages and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "diffd: unexpected arguments")
		os.Exit(2)
	}
	if *listLangs {
		fmt.Println(strings.Join(diffserve.Languages(), "\n"))
		return
	}
	logf := log.New(os.Stderr, "diffd: ", log.LstdFlags).Printf

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "diffd: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	cfg := diffserve.Config{
		Workers:           *workers,
		DiffTimeout:       *diffTimeout,
		MaxQueue:          *maxQueue,
		TenantLimit:       *tenantLimit,
		SlowDiffThreshold: *slow,
		Logger:            logger,
		SLO: telemetry.SLOConfig{
			Window:           *sloWindow,
			LatencyObjective: *sloObjective,
		},
	}
	if *langs != "" {
		cfg.Langs = strings.Split(*langs, ",")
	}
	if *tracePath != "" {
		f, err := telemetry.OpenRotatingFile(*tracePath, *traceMaxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diffd:", err)
			os.Exit(2)
		}
		defer f.Close()
		cfg.Trace = telemetry.NewTraceWriter(f)
	}
	if *spansPath != "" {
		f, err := telemetry.OpenRotatingFile(*spansPath, *traceMaxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diffd:", err)
			os.Exit(2)
		}
		defer f.Close()
		cfg.Spans = &jsonlSpans{enc: json.NewEncoder(f)}
	}

	srv, err := diffserve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffd:", err)
		os.Exit(2)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	logf("serving %s on %s (wire schema %s)", strings.Join(orAll(cfg.Langs), ","), *addr, diffserve.WireVersion)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	if *drainGrace > 0 {
		// Lame-duck: unready on /readyz, still serving. Load balancers get
		// one health-check interval to route traffic away before any
		// request sees a drain 503.
		srv.Lameduck()
		logf("lame-duck for %v: /readyz now 503, still serving", *drainGrace)
		time.Sleep(*drainGrace)
	}
	logf("draining (bound %v): running diffs complete, waiting and new requests get 503", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logf("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("shutdown: %v", err)
	}
	logf("drained cleanly")
}

func orAll(langs []string) []string {
	if len(langs) == 0 {
		return diffserve.Languages()
	}
	return langs
}
