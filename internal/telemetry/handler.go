package telemetry

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Handler returns the exposition endpoint for a Gatherer:
//
//	/metrics        Prometheus text format (version 0.0.4)
//	/debug/vars     expvar JSON (the process-global expvar map: cmdline
//	                and memstats; the gatherer's series are at /metrics only)
//	/debug/pprof/   net/http/pprof profiles (heap, cpu, goroutine, trace)
//
// Mount it on its own listener (the -metrics-addr flag of cmd/truediff) or
// under a route of an existing server. The handler holds
// no state of its own; every request gathers fresh values.
func Handler(g Gatherer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if g != nil {
			_ = WritePrometheus(w, g.GatherMetrics())
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("structdiff telemetry\n\n/metrics\n/debug/vars\n/debug/pprof/\n"))
	})
	return mux
}
