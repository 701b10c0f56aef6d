package truediff

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime/pprof"
	"runtime/trace"
	"testing"

	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/tree"
)

// profilePair builds a small source/target pair with enough structure that
// every phase does real work.
func profilePair(t *testing.T) (*tree.Builder, *tree.Node, *tree.Node) {
	t.Helper()
	b := exp.NewBuilder()
	src := b.MustN(exp.Add,
		b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b")),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Var, "d")))
	dst := b.MustN(exp.Add,
		b.MustN(exp.Var, "d"),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b"))))
	return b, src, dst
}

// TestProfileLabelsReachPhases asserts that with Options.ProfileLabels
// every phase body runs under a context carrying the phase pprof label
// (the deterministic counterpart of the sampling-based CPU-profile test).
func TestProfileLabelsReachPhases(t *testing.T) {
	b, src, dst := profilePair(t)

	var seen []string
	ProfilePhaseHook = func(ctx context.Context, p telemetry.Phase) {
		val, ok := pprof.Label(ctx, PprofPhaseLabel)
		if !ok {
			t.Errorf("phase %v: context carries no %q label", p, PprofPhaseLabel)
			return
		}
		if val != p.String() {
			t.Errorf("phase %v: label %s=%q, want %q", p, PprofPhaseLabel, val, p.String())
		}
		seen = append(seen, val)
	}
	defer func() { ProfilePhaseHook = nil }()

	d := NewWithOptions(b.Schema(), Options{ProfileLabels: true})
	if _, err := d.Diff(src, dst, b.Alloc()); err != nil {
		t.Fatalf("diff: %v", err)
	}
	want := []string{"prepare", "shares", "select", "emit"}
	if len(seen) != len(want) {
		t.Fatalf("hook saw phases %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook saw phases %v, want %v (order matters)", seen, want)
		}
	}

	// Without ProfileLabels the hook must never fire: the default path
	// touches no label machinery.
	seen = nil
	plain := New(b.Schema())
	if _, err := plain.Diff(src, dst, b.Alloc()); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(seen) != 0 {
		t.Fatalf("unprofiled diff entered labeled phases: %v", seen)
	}
}

// TestProfileLabelsNestOnCallerContext asserts labels compose: a label
// already on the incoming context (as the engine's worker and pair labels
// are) stays visible inside the phase bodies alongside the phase label.
func TestProfileLabelsNestOnCallerContext(t *testing.T) {
	b, src, dst := profilePair(t)

	calls := 0
	ProfilePhaseHook = func(ctx context.Context, p telemetry.Phase) {
		calls++
		if v, ok := pprof.Label(ctx, "pair"); !ok || v != "outer" {
			t.Errorf("phase %v: outer label pair=%q (ok=%v), want \"outer\"", p, v, ok)
		}
		if _, ok := pprof.Label(ctx, PprofPhaseLabel); !ok {
			t.Errorf("phase %v: phase label missing under nested context", p)
		}
	}
	defer func() { ProfilePhaseHook = nil }()

	d := NewWithOptions(b.Schema(), Options{ProfileLabels: true})
	pprof.Do(context.Background(), pprof.Labels("pair", "outer"), func(ctx context.Context) {
		if _, err := d.DiffScratch(ctx, src, dst, b.Alloc(), NewScratch(), nil); err != nil {
			t.Fatalf("diff: %v", err)
		}
	})
	if calls != telemetry.NumPhases {
		t.Fatalf("hook fired %d times, want %d", calls, telemetry.NumPhases)
	}
}

// TestTraceRegionsEmitted captures a runtime/trace around a profiled diff
// and asserts the task and the four phase regions appear in the raw trace
// stream (their names are stored as plain strings in the trace's string
// table).
func TestTraceRegionsEmitted(t *testing.T) {
	b, src, dst := profilePair(t)
	d := NewWithOptions(b.Schema(), Options{ProfileLabels: true})

	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("trace.Start: %v (tracing already active?)", err)
	}
	_, err := d.Diff(src, dst, b.Alloc())
	trace.Stop()
	if err != nil {
		t.Fatalf("diff: %v", err)
	}

	raw := buf.Bytes()
	if !bytes.Contains(raw, []byte(TraceTaskName)) {
		t.Errorf("trace does not mention task %q", TraceTaskName)
	}
	for p := 0; p < telemetry.NumPhases; p++ {
		name := TraceRegionPrefix + telemetry.Phase(p).String()
		if !bytes.Contains(raw, []byte(name)) {
			t.Errorf("trace does not mention region %q", name)
		}
	}
}

// TestCPUProfileCarriesPhaseLabels takes a real CPU profile over a burst
// of profiled diffs and asserts the phase label key and values appear in
// the profile's string table — i.e. labels survive all the way into
// profile samples, not just contexts. Sampling-based, so it only requires
// the two phases that dominate runtime and is skipped under -short.
func TestCPUProfileCarriesPhaseLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling-based; skipped under -short")
	}
	b, src, dst := profilePair(t)
	d := NewWithOptions(b.Schema(), Options{ProfileLabels: true})
	scratch := NewScratch()

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("StartCPUProfile: %v (profiling already active?)", err)
	}
	// A few hundred milliseconds of diffing yields dozens of samples at
	// the default 100 Hz rate.
	for i := 0; i < 20000; i++ {
		if _, err := d.DiffScratch(context.Background(), src, dst, b.Alloc(), scratch, nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatalf("diff: %v", err)
		}
	}
	pprof.StopCPUProfile()

	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}
	if !bytes.Contains(raw, []byte(PprofPhaseLabel)) {
		t.Fatalf("CPU profile carries no %q label key", PprofPhaseLabel)
	}
	found := 0
	for p := 0; p < telemetry.NumPhases; p++ {
		if bytes.Contains(raw, []byte(telemetry.Phase(p).String())) {
			found++
		}
	}
	if found < 2 {
		t.Errorf("CPU profile mentions only %d of %d phase names; samples not decomposing by phase", found, telemetry.NumPhases)
	}
}
