package diffserve

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// svcMetrics holds the service-level counters, one layer above the
// per-engine counters: HTTP outcomes, shed decisions, pending jobs, and
// the request-latency distribution. All atomics, matching the engine's
// lock-free convention. Server.finish counts each answered request in
// exactly one outcome counter.
type svcMetrics struct {
	requests     atomic.Uint64
	ok           atomic.Uint64
	clientErrors atomic.Uint64 // 4xx other than sheds
	serverErrors atomic.Uint64 // 5xx other than drain rejects
	sheds        atomic.Uint64 // 429: tenant limit or queue backpressure
	drainRejects atomic.Uint64 // 503: refused because draining

	// pending gauges admitted jobs whose request is not yet answered, one
	// per request, server-wide, each counted once whether it waits for a
	// worker slot, runs or is done; it is the admission controller's
	// saturation signal.
	pending atomic.Int64

	latency telemetry.Histogram // request wall time, ns (diff requests only)
}

// GatherMetrics implements telemetry.Gatherer for the whole service:
// diffserve_* service metrics first, then every engine metric once per
// served language with a {lang="..."} label. telemetry.Handler(srv) serves
// the union at /metrics.
func (s *Server) GatherMetrics() []telemetry.Metric {
	counter := func(name, help string, v uint64) telemetry.Metric {
		return telemetry.Metric{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)}
	}
	ms := []telemetry.Metric{
		counter("diffserve_requests_total", "Diff requests received.", s.m.requests.Load()),
		counter("diffserve_responses_ok_total", "Requests answered 2xx.", s.m.ok.Load()),
		counter("diffserve_responses_client_error_total", "Requests answered 4xx (excluding sheds).", s.m.clientErrors.Load()),
		counter("diffserve_responses_server_error_total", "Requests answered 5xx (excluding drain rejects).", s.m.serverErrors.Load()),
		counter("diffserve_sheds_total", "Requests shed with 429 by admission control (tenant limit or queue backpressure).", s.m.sheds.Load()),
		counter("diffserve_drain_rejects_total", "Requests refused with 503 because the server is draining.", s.m.drainRejects.Load()),
		{
			Name: "diffserve_pending_jobs", Kind: telemetry.KindGauge,
			Help:  "Admitted jobs whose request is not yet answered.",
			Value: float64(s.m.pending.Load()),
		},
		{
			Name: "diffserve_ref_trees", Kind: telemetry.KindGauge,
			Help:  "Uploaded trees the ref tables hold, over every language.",
			Value: float64(s.refTrees()),
		},
		{
			Name: "diffserve_request_duration_seconds", Kind: telemetry.KindHistogram,
			Help: "Request wall time from admission to response, diff endpoint.",
			Hist: s.m.latency.Snapshot(), Scale: 1e-9,
		},
	}
	ms = append(ms, telemetry.SLOMetrics("diffserve_slo_", s.slo.Snapshot())...)
	return append(ms, s.engineMetrics()...)
}

// engineMetrics renders every language engine's metrics with a lang label.
// The exposition writer requires metrics sharing a name to be adjacent, so
// the per-engine sequences are zipped sample-by-sample rather than
// concatenated engine-by-engine; every engine emits the identical fixed
// sequence, which makes the zip well-defined. If an engine ever diverged
// (it cannot today), the affected tail falls back to concatenation.
func (s *Server) engineMetrics() []telemetry.Metric {
	type engSeq struct {
		lang string
		ms   []telemetry.Metric
	}
	seqs := make([]engSeq, 0, len(s.langs))
	for _, name := range s.langNames {
		seqs = append(seqs, engSeq{lang: name, ms: s.langs[name].eng.GatherMetrics()})
	}
	var out []telemetry.Metric
	for i := 0; ; i++ {
		emitted := false
		for _, sq := range seqs {
			if i >= len(sq.ms) {
				continue
			}
			m := sq.ms[i]
			labels := make([]telemetry.Label, 0, len(m.Labels)+1)
			labels = append(labels, m.Labels...)
			m.Labels = append(labels, telemetry.Label{Key: "lang", Value: sq.lang})
			out = append(out, m)
			emitted = true
		}
		if !emitted {
			return out
		}
	}
}
