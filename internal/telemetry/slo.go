package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig parameterizes rolling-window service-level-objective
// accounting. The zero value selects the defaults noted on each field. The
// rest is fixed: a 99.9% availability target, a 95% latency-attainment
// target, and a short burn-rate window of Window/12.
type SLOConfig struct {
	// Window is the long (objective) window the availability and latency
	// attainment are computed over. Default 1h.
	Window time.Duration
	// LatencyObjective is the per-request latency target: a successful
	// request at or under it counts toward latency attainment. Default
	// 250ms.
	LatencyObjective time.Duration
	// Now overrides the clock, for tests. Nil uses time.Now.
	Now func() time.Time
}

const (
	// sloSlots is how many ring slots the window is divided into: 1m
	// slots at the default 1h window.
	sloSlots = 60
	// sloShortSlots is how many of the newest slots make up the fast
	// burn-rate window (the classic multi-window alert pairs a short and
	// a long burn rate): Window/12, the 5m/1h pairing at the default.
	sloShortSlots = sloSlots / 12
	// availabilityTarget is the availability objective; the burn rate
	// divides the window's error ratio by the error budget 1−target.
	availabilityTarget = 0.999
	// latencyTarget is the attainment objective for LatencyObjective.
	latencyTarget = 0.95
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = time.Hour
	}
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloSlot is one time slice of the ring: lock-free counters plus a latency
// histogram, tagged with the epoch (slot-granularity timestamp) the data
// belongs to so stale slots are detected and recycled in place.
type sloSlot struct {
	epoch    atomic.Int64
	requests atomic.Uint64
	errors   atomic.Uint64
	latOK    atomic.Uint64
	latency  Histogram
}

// SLO computes rolling-window availability, latency-objective attainment,
// and multi-window burn rates from a stream of per-request observations.
//
// Implementation: a ring of time slots. Observe locates the current slot
// by epoch and updates atomics only — the mutex is taken solely when a
// slot is recycled for a new epoch (once per slot duration), so the hot
// path stays lock-free and allocation-free. Snapshot merges the live
// slots; slots older than the window are ignored (and recycled on the
// next write that lands on them).
type SLO struct {
	cfg     SLOConfig
	slotDur time.Duration
	slots   []sloSlot
	rotMu   sync.Mutex
}

// NewSLO returns an SLO with the given configuration (zero value: 1h
// window, 5m short window, 250ms latency objective, 99.9%/95% targets).
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	s := &SLO{
		cfg:     cfg,
		slotDur: cfg.Window / sloSlots,
		slots:   make([]sloSlot, sloSlots),
	}
	if s.slotDur <= 0 {
		s.slotDur = time.Nanosecond
	}
	return s
}

// epochOf maps a wall-clock instant to its slot epoch.
func (s *SLO) epochOf(t time.Time) int64 {
	return t.UnixNano() / int64(s.slotDur)
}

// slotFor returns the live slot for now, recycling it under the rotation
// mutex when its data belongs to an expired epoch. A fresh SLO's slots
// carry epoch 0, which can never be current (it would mean 1970), so they
// rotate on first touch.
func (s *SLO) slotFor(now time.Time) *sloSlot {
	epoch := s.epochOf(now)
	sl := &s.slots[int(uint64(epoch)%uint64(len(s.slots)))]
	if sl.epoch.Load() != epoch {
		s.rotMu.Lock()
		if sl.epoch.Load() != epoch {
			sl.requests.Store(0)
			sl.errors.Store(0)
			sl.latOK.Store(0)
			sl.latency.Reset()
			sl.epoch.Store(epoch)
		}
		s.rotMu.Unlock()
	}
	return sl
}

// Observe records one request: its latency and whether it succeeded.
// Failed requests count against availability; successful requests at or
// under the latency objective count toward attainment. All observations
// (including failures) enter the windowed latency distribution. Nil-safe
// and safe for any number of concurrent callers.
func (s *SLO) Observe(latency time.Duration, ok bool) {
	if s == nil {
		return
	}
	sl := s.slotFor(s.cfg.Now())
	sl.requests.Add(1)
	if !ok {
		sl.errors.Add(1)
	} else if latency <= s.cfg.LatencyObjective {
		sl.latOK.Add(1)
	}
	sl.latency.Record(latency.Nanoseconds())
}

// SLOSnapshot is a point-in-time evaluation of the objectives over the
// rolling window. All fields are plain values, so snapshots render
// deterministically (String is golden-testable).
type SLOSnapshot struct {
	// Window and ShortWindow echo the windows.
	Window      time.Duration
	ShortWindow time.Duration
	// LatencyObjective, AvailabilityTarget, LatencyTarget echo the
	// objectives.
	LatencyObjective   time.Duration
	AvailabilityTarget float64
	LatencyTarget      float64

	// Requests and Errors count the window's observations; LatencyOK
	// counts successful requests at or under the latency objective.
	Requests  uint64
	Errors    uint64
	LatencyOK uint64

	// Availability is 1 − Errors/Requests (1 with no traffic — an idle
	// service is meeting its objective). LatencyAttainment is
	// LatencyOK / (Requests − Errors), again 1 with no successes.
	Availability      float64
	LatencyAttainment float64

	// BurnShort and BurnLong are the error-budget burn rates over the
	// short and long windows: error ratio ÷ (1 − AvailabilityTarget).
	// 1.0 burns the budget exactly at the objective rate; the classic
	// page threshold is both windows well above 1 (e.g. 14.4x over 5m
	// AND 1h for a 99.9% target).
	BurnShort float64
	BurnLong  float64

	// P50/P95/P99 are windowed request-latency quantiles (bucket upper
	// bounds, see Histogram).
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration

	// Latency is the merged windowed latency distribution, for callers
	// that need more than the fixed quantiles.
	Latency HistogramSnapshot
}

// Snapshot evaluates the objectives now. Nil-safe: a nil SLO yields the
// zero snapshot.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	now := s.cfg.Now()
	cur := s.epochOf(now)
	oldest := cur - sloSlots + 1
	shortOldest := cur - sloShortSlots + 1

	snap := SLOSnapshot{
		Window:             s.cfg.Window,
		ShortWindow:        sloShortSlots * s.slotDur,
		LatencyObjective:   s.cfg.LatencyObjective,
		AvailabilityTarget: availabilityTarget,
		LatencyTarget:      latencyTarget,
	}
	var shortReq, shortErr uint64
	for i := range s.slots {
		sl := &s.slots[i]
		epoch := sl.epoch.Load()
		if epoch < oldest || epoch > cur {
			continue // stale (not yet recycled) or empty slot
		}
		req, errs, lok := sl.requests.Load(), sl.errors.Load(), sl.latOK.Load()
		snap.Requests += req
		snap.Errors += errs
		snap.LatencyOK += lok
		snap.Latency.Merge(sl.latency.Snapshot())
		if epoch >= shortOldest {
			shortReq += req
			shortErr += errs
		}
	}

	snap.Availability = 1
	if snap.Requests > 0 {
		snap.Availability = 1 - float64(snap.Errors)/float64(snap.Requests)
	}
	snap.LatencyAttainment = 1
	if ok := snap.Requests - snap.Errors; ok > 0 {
		snap.LatencyAttainment = float64(snap.LatencyOK) / float64(ok)
	}
	budget := 1 - availabilityTarget
	if snap.Requests > 0 {
		snap.BurnLong = (float64(snap.Errors) / float64(snap.Requests)) / budget
	}
	if shortReq > 0 {
		snap.BurnShort = (float64(shortErr) / float64(shortReq)) / budget
	}
	snap.P50 = time.Duration(snap.Latency.Quantile(0.50))
	snap.P95 = time.Duration(snap.Latency.Quantile(0.95))
	snap.P99 = time.Duration(snap.Latency.Quantile(0.99))
	return snap
}

// String renders the snapshot on one line, a pure function of the fields:
//
//	slo[1h0m0s]: 120 req, avail 99.17% (target 99.90%, burn 8.3x/8.3x), 95.00% <= 250ms (target 95.00%), p95 33ms
func (s SLOSnapshot) String() string {
	return fmt.Sprintf(
		"slo[%v]: %d req, avail %.2f%% (target %.2f%%, burn %.1fx/%.1fx), %.2f%% <= %v (target %.2f%%), p95 %v",
		s.Window, s.Requests,
		100*s.Availability, 100*s.AvailabilityTarget, s.BurnShort, s.BurnLong,
		100*s.LatencyAttainment, s.LatencyObjective, 100*s.LatencyTarget,
		s.P95.Round(time.Millisecond),
	)
}

// SLOMetrics renders a snapshot as exposition gauges under the given name
// prefix (e.g. "diffserve_slo_"). Every call emits the same fixed
// sequence of series.
func SLOMetrics(prefix string, s SLOSnapshot) []Metric {
	gauge := func(name, help string, v float64) Metric {
		return Metric{Name: prefix + name, Help: help, Kind: KindGauge, Value: v}
	}
	return []Metric{
		gauge("window_seconds", "Rolling SLO window length.", s.Window.Seconds()),
		gauge("window_requests", "Requests observed in the rolling window.", float64(s.Requests)),
		gauge("window_errors", "Failed requests observed in the rolling window.", float64(s.Errors)),
		gauge("availability_ratio", "Windowed availability (1 - errors/requests; 1 when idle).", s.Availability),
		gauge("availability_target_ratio", "Configured availability objective.", s.AvailabilityTarget),
		gauge("latency_attainment_ratio", "Fraction of windowed successes at or under the latency objective.", s.LatencyAttainment),
		gauge("latency_target_ratio", "Configured latency-attainment objective.", s.LatencyTarget),
		gauge("latency_objective_seconds", "Configured per-request latency objective.", s.LatencyObjective.Seconds()),
		gauge("burn_rate_short", "Error-budget burn rate over the short window (1.0 = burning exactly the budget).", s.BurnShort),
		gauge("burn_rate_long", "Error-budget burn rate over the full window.", s.BurnLong),
		gauge("window_p95_seconds", "Windowed p95 request latency.", float64(s.P95)/float64(time.Second)),
	}
}
