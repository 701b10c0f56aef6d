package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/derrors"
	"repro/internal/diffserve"
	"repro/internal/pylang"
	"repro/internal/telemetry"
)

// loadConfig parameterizes the diffd load test.
type loadConfig struct {
	// addr is a running daemon's base URL ("http://host:port"); empty
	// starts an in-process server and drives it over loopback, so the
	// mode is self-contained.
	addr     string
	clients  int
	requests int
	workers  int
	seed     int64
	// trace records every span client-side and (for the in-process
	// server) server-side into one recorder and prints a per-trace
	// latency decomposition after the run.
	trace bool
	// rec overrides the recorder trace uses (tests inspect it; nil with
	// trace set allocates one).
	rec *telemetry.SpanRecorder
	// chaos interposes a seeded fault proxy (internal/chaos) between the
	// clients and the daemon and arms the clients with retries; the run
	// then reports goodput (successful requests per second) under fault
	// injection. chaosRate is the total fault rate (default 0.1), split
	// across resets, error answers, and truncated bodies.
	chaos     bool
	chaosRate float64
	chaosSeed int64
}

// runLoad drives a diffd with concurrent clients replaying a generated
// commit history (every client its own connection and tenant) and reports
// client-observed latency quantiles, throughput, and shed counts. Exit
// status 0 on success, 1 when any request failed for a reason other than
// admission control.
func runLoad(cfg loadConfig) int {
	hist := corpus.Generate(corpus.Options{
		Seed:              cfg.seed,
		Files:             8,
		Commits:           40,
		MaxFilesPerCommit: 3,
		MinNodes:          200,
		MaxNodes:          1200,
		MaxEditsPerFile:   4,
	})
	changes := hist.Changes()
	if len(changes) == 0 {
		fmt.Fprintln(os.Stderr, "bench: corpus produced no changes")
		return 2
	}

	rec := cfg.rec
	if cfg.trace && rec == nil {
		rec = telemetry.NewSpanRecorder()
	}
	scfg := diffserve.Config{
		Langs:   []string{"pylang"},
		Workers: cfg.workers,
	}
	if rec != nil {
		scfg.Spans = rec
	}

	base := cfg.addr
	if base == "" {
		srv, err := diffserve.NewServer(scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		hs := &http.Server{Handler: srv}
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
			_ = hs.Shutdown(ctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "bench: started in-process diffd at %s\n", base)
	}

	var proxy *chaos.Proxy
	if cfg.chaos {
		rate := cfg.chaosRate
		if rate <= 0 {
			rate = 0.1
		}
		var err error
		proxy, err = chaos.New(chaos.Config{
			Target:       base,
			Seed:         cfg.chaosSeed,
			ResetRate:    0.4 * rate,
			ErrorRate:    0.3 * rate,
			TruncateRate: 0.3 * rate,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer proxy.Close()
		fmt.Fprintf(os.Stderr, "bench: chaos proxy %s -> %s (total fault rate %.0f%%)\n",
			proxy.URL(), base, 100*rate)
		base = proxy.URL()
	}

	var (
		latency  telemetry.Histogram
		sheds    atomic.Uint64
		failures atomic.Uint64
		retries  atomic.Uint64
		next     atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			copts := []diffserve.ClientOption{diffserve.WithTenant(fmt.Sprintf("load-%d", c))}
			if rec != nil {
				copts = append(copts, diffserve.WithSpans(rec))
			}
			if cfg.chaos {
				copts = append(copts, diffserve.WithRetry(diffserve.RetryPolicy{
					MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond,
					MaxBackoff: 100 * time.Millisecond, PerAttemptTimeout: 10 * time.Second,
					Seed: cfg.chaosSeed + int64(c),
				}))
			}
			client := diffserve.NewClient(base, "pylang", pylang.Schema(), copts...)
			defer func() {
				retries.Add(client.ClientSnapshot().Retries)
				client.Close()
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.requests) {
					return
				}
				ch := changes[int(i)%len(changes)]
				t0 := time.Now()
				_, err := client.Diff(context.Background(), ch.Before, ch.After, nil)
				latency.Record(time.Since(t0).Nanoseconds())
				switch {
				case err == nil:
				case errors.Is(err, derrors.ErrServiceUnavailable):
					sheds.Add(1)
					if ra := diffserve.RetryAfter(err); ra > 0 {
						time.Sleep(min(ra, 250*time.Millisecond))
					}
				default:
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "bench: request %d: %v\n", i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	s := latency.Snapshot()
	fmt.Printf("load test: %d requests over %d clients against %s\n", cfg.requests, cfg.clients, base)
	fmt.Printf("  wall %v, %.0f req/s\n", wall.Round(time.Millisecond), float64(cfg.requests)/wall.Seconds())
	fmt.Printf("  latency mean %v, p50 %v, p95 %v, max-bucket %v\n",
		time.Duration(s.Mean()).Round(time.Microsecond),
		time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Quantile(0.95)).Round(time.Microsecond),
		time.Duration(s.Quantile(1.0)).Round(time.Microsecond))
	fmt.Printf("  %d shed by admission control, %d failed\n", sheds.Load(), failures.Load())
	if proxy != nil {
		good := uint64(cfg.requests) - sheds.Load() - failures.Load()
		c := proxy.Counts()
		fmt.Printf("  goodput %.0f req/s (%d/%d succeeded) with %d client retries\n",
			float64(good)/wall.Seconds(), good, cfg.requests, retries.Load())
		fmt.Printf("  chaos injected: %d resets, %d error answers, %d truncations (%d forwarded clean)\n",
			c.Resets, c.Errors, c.Truncates, c.Forwarded)
	}
	if rec != nil {
		printTraceSummary(summarizeSpans(rec.Spans()))
	}
	if failures.Load() > 0 {
		return 1
	}
	return 0
}

// loadSpanNames is the span chain one traced in-process Diff produces:
// client RPC → server request → wait for a worker slot → engine → four
// phases.
var loadSpanNames = []string{
	"diffserve.client.diff", "diffserve.request", "diffserve.queue", "engine.diff",
	"truediff.prepare", "truediff.shares", "truediff.select", "truediff.emit",
}

// spanSummary aggregates a load test's recorded spans: trace counts and
// the summed duration per span name (the latency decomposition).
type spanSummary struct {
	traces   int                      // distinct trace IDs
	complete int                      // traces containing the full chain
	byName   map[string]time.Duration // summed span durations
	counts   map[string]int
}

func summarizeSpans(spans []telemetry.Span) spanSummary {
	s := spanSummary{byName: map[string]time.Duration{}, counts: map[string]int{}}
	names := map[telemetry.TraceID]map[string]bool{}
	for i := range spans {
		sp := &spans[i]
		s.byName[sp.Name] += sp.Stop.Sub(sp.Start)
		s.counts[sp.Name]++
		if names[sp.Trace] == nil {
			names[sp.Trace] = map[string]bool{}
		}
		names[sp.Trace][sp.Name] = true
	}
	s.traces = len(names)
	for _, seen := range names {
		full := true
		for _, n := range loadSpanNames {
			if !seen[n] {
				full = false
				break
			}
		}
		if full {
			s.complete++
		}
	}
	return s
}

func printTraceSummary(s spanSummary) {
	fmt.Printf("  traces: %d recorded, %d with the full client→server→queue→engine→phases chain\n",
		s.traces, s.complete)
	for _, n := range loadSpanNames {
		if c := s.counts[n]; c > 0 {
			fmt.Printf("    %-22s %5d spans, mean %v\n", n, c,
				(s.byName[n] / time.Duration(c)).Round(time.Microsecond))
		}
	}
}
