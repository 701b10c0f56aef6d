package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for SLO window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func TestSLODefaults(t *testing.T) {
	s := NewSLO(SLOConfig{})
	snap := s.Snapshot()
	if snap.Window != time.Hour || snap.ShortWindow != 5*time.Minute {
		t.Errorf("window defaults = %v/%v, want 1h/5m", snap.Window, snap.ShortWindow)
	}
	if len(s.slots) != 60 || snap.LatencyObjective != 250*time.Millisecond {
		t.Errorf("slots/objective = %d/%v", len(s.slots), snap.LatencyObjective)
	}
	if snap.AvailabilityTarget != 0.999 || snap.LatencyTarget != 0.95 {
		t.Errorf("targets = %v/%v", snap.AvailabilityTarget, snap.LatencyTarget)
	}
}

func TestSLONilSafety(t *testing.T) {
	var s *SLO
	s.Observe(time.Millisecond, true) // must not panic
	snap := s.Snapshot()
	if snap.Requests != 0 {
		t.Errorf("nil SLO snapshot has %d requests", snap.Requests)
	}
}

func TestSLOIdleIsHealthy(t *testing.T) {
	s := NewSLO(SLOConfig{})
	snap := s.Snapshot()
	if snap.Availability != 1 || snap.LatencyAttainment != 1 {
		t.Errorf("idle SLO: avail %v, attainment %v, want 1/1", snap.Availability, snap.LatencyAttainment)
	}
	if snap.BurnShort != 0 || snap.BurnLong != 0 {
		t.Errorf("idle SLO burns budget: %v/%v", snap.BurnShort, snap.BurnLong)
	}
}

func TestSLOCountsAndBurn(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		Window:           time.Hour,
		LatencyObjective: 100 * time.Millisecond,
		Now:              clk.now,
	})
	// 90 fast successes, 5 slow successes, 5 errors.
	for i := 0; i < 90; i++ {
		s.Observe(10*time.Millisecond, true)
	}
	for i := 0; i < 5; i++ {
		s.Observe(500*time.Millisecond, true)
	}
	for i := 0; i < 5; i++ {
		s.Observe(50*time.Millisecond, false)
	}
	snap := s.Snapshot()
	if snap.Requests != 100 || snap.Errors != 5 || snap.LatencyOK != 90 {
		t.Fatalf("req/err/latOK = %d/%d/%d, want 100/5/90", snap.Requests, snap.Errors, snap.LatencyOK)
	}
	if math.Abs(snap.Availability-0.95) > 1e-9 {
		t.Errorf("availability = %v, want 0.95", snap.Availability)
	}
	// 90 of 95 successes met the objective.
	if math.Abs(snap.LatencyAttainment-90.0/95.0) > 1e-9 {
		t.Errorf("attainment = %v, want %v", snap.LatencyAttainment, 90.0/95.0)
	}
	// Error ratio 5% against the 0.1% budget of the 99.9% target: burning
	// 50x, on both windows (all traffic landed in the newest slot).
	if math.Abs(snap.BurnLong-50) > 1e-9 || math.Abs(snap.BurnShort-50) > 1e-9 {
		t.Errorf("burn = %v/%v, want 50/50", snap.BurnShort, snap.BurnLong)
	}
	// Ranks 96..100 are the 500ms observations, so p99 lands in their
	// bucket while p95 stays in the 50ms error bucket.
	if snap.P99 < 500*time.Millisecond {
		t.Errorf("p99 = %v, want >= 500ms (top 5%% of observations were 500ms)", snap.P99)
	}
	if snap.P95 < 50*time.Millisecond || snap.P95 >= 500*time.Millisecond {
		t.Errorf("p95 = %v, want in [50ms, 500ms)", snap.P95)
	}
}

func TestSLOShortWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		Window: time.Hour, // 1m slots, 5m short window
		Now:    clk.now,
	})
	// Errors land now; after 10 minutes they are outside the short window
	// but still inside the long one.
	for i := 0; i < 10; i++ {
		s.Observe(time.Millisecond, false)
	}
	clk.advance(10 * time.Minute)
	for i := 0; i < 10; i++ {
		s.Observe(time.Millisecond, true)
	}
	snap := s.Snapshot()
	if snap.Requests != 20 || snap.Errors != 10 {
		t.Fatalf("req/err = %d/%d, want 20/10", snap.Requests, snap.Errors)
	}
	if snap.BurnShort != 0 {
		t.Errorf("short burn = %v, want 0 (errors are 10m old)", snap.BurnShort)
	}
	if snap.BurnLong <= 0 {
		t.Errorf("long burn = %v, want > 0", snap.BurnLong)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{Window: time.Hour, Now: clk.now})
	for i := 0; i < 50; i++ {
		s.Observe(time.Millisecond, false)
	}
	clk.advance(2 * time.Hour)
	snap := s.Snapshot()
	if snap.Requests != 0 {
		t.Fatalf("after window expiry: %d requests retained", snap.Requests)
	}
	if snap.Availability != 1 {
		t.Errorf("expired window availability = %v, want 1", snap.Availability)
	}

	// Slots recycle on the next write landing on them.
	s.Observe(time.Millisecond, true)
	snap = s.Snapshot()
	if snap.Requests != 1 || snap.Errors != 0 {
		t.Errorf("after recycle: req/err = %d/%d, want 1/0", snap.Requests, snap.Errors)
	}
}

func TestSLOSnapshotStringGolden(t *testing.T) {
	snap := SLOSnapshot{
		Window:             time.Hour,
		ShortWindow:        5 * time.Minute,
		LatencyObjective:   250 * time.Millisecond,
		AvailabilityTarget: 0.999,
		LatencyTarget:      0.95,
		Requests:           120,
		Errors:             1,
		Availability:       1 - 1.0/120,
		LatencyAttainment:  0.95,
		BurnShort:          8.33,
		BurnLong:           8.33,
		P95:                33 * time.Millisecond,
	}
	want := "slo[1h0m0s]: 120 req, avail 99.17% (target 99.90%, burn 8.3x/8.3x), 95.00% <= 250ms (target 95.00%), p95 33ms"
	if got := snap.String(); got != want {
		t.Errorf("String():\n got %q\nwant %q", got, want)
	}
}

func TestSLOMetrics(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{Now: clk.now})
	s.Observe(10*time.Millisecond, true)
	s.Observe(time.Second, false)
	ms := SLOMetrics("structdiff_slo_", s.Snapshot())
	if len(ms) != 11 {
		t.Fatalf("SLOMetrics emitted %d metrics, want 11", len(ms))
	}
	byName := map[string]Metric{}
	for _, m := range ms {
		if !strings.HasPrefix(m.Name, "structdiff_slo_") {
			t.Errorf("metric %q missing prefix", m.Name)
		}
		if m.Kind != KindGauge {
			t.Errorf("metric %q kind = %v, want gauge", m.Name, m.Kind)
		}
		byName[m.Name] = m
	}
	if v := byName["structdiff_slo_window_requests"].Value; v != 2 {
		t.Errorf("window_requests = %v, want 2", v)
	}
	if v := byName["structdiff_slo_window_errors"].Value; v != 1 {
		t.Errorf("window_errors = %v, want 1", v)
	}
	if v := byName["structdiff_slo_availability_ratio"].Value; v != 0.5 {
		t.Errorf("availability_ratio = %v, want 0.5", v)
	}
	if v := byName["structdiff_slo_window_seconds"].Value; v != 3600 {
		t.Errorf("window_seconds = %v, want 3600", v)
	}
}
