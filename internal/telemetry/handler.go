package telemetry

import "net/http"

// Handler returns the /metrics writer for a Gatherer: every request
// gathers fresh values and answers them in Prometheus text format
// (version 0.0.4), whatever its path. The diff service mounts it at
// GET /metrics. The handler holds no state of its own.
func Handler(g Gatherer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if g != nil {
			_ = WritePrometheus(w, g.GatherMetrics())
		}
	})
}
