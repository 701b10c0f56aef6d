package truediff

import (
	"context"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/uri"
)

// phaseEvent is one recorded tracer callback.
type phaseEvent struct {
	phase telemetry.Phase
	wall  time.Duration
}

// recordingTracer appends every callback to events. It is deliberately
// not concurrency-safe: these tests drive one diff at a time.
type recordingTracer struct {
	events []phaseEvent
}

func (r *recordingTracer) Phase(p telemetry.Phase, d time.Duration) {
	r.events = append(r.events, phaseEvent{phase: p, wall: d})
}

// TestTracerOrdering pins the tracer event contract: a diff whose context
// carries a tracer reports each of the four phases exactly once in Phase
// order, and nothing else.
func TestTracerOrdering(t *testing.T) {
	rec := &recordingTracer{}
	ctx := telemetry.ContextWithTracer(context.Background(), rec)
	d := New(exp.Schema())
	s := NewScratch()

	const diffs = 5
	for i := 0; i < diffs; i++ {
		g := exp.NewGen(int64(400 + i))
		before := g.Tree(60 + 10*i)
		after := g.MutateN(before, 1+i)
		alloc := uri.NewAllocator()
		src := tree.Clone(before, alloc, tree.SHA256)
		dst := tree.Clone(after, alloc, tree.SHA256)

		start := len(rec.events)
		if _, err := d.DiffScratch(ctx, src, dst, alloc, s, nil); err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
		span := rec.events[start:]
		if len(span) != telemetry.NumPhases {
			t.Fatalf("diff %d emitted %d events, want %d: %+v", i, len(span), telemetry.NumPhases, span)
		}
		// The scratch's phase times must match what the tracer saw.
		times := s.PhaseTimes()
		for p := 0; p < telemetry.NumPhases; p++ {
			if span[p].phase != telemetry.Phase(p) {
				t.Errorf("diff %d event %d = %+v, want phase %v", i, p, span[p], telemetry.Phase(p))
			}
			if times[p] != span[p].wall {
				t.Errorf("diff %d phase %v: scratch %v != tracer %v", i, telemetry.Phase(p), times[p], span[p].wall)
			}
		}
	}
	if want := diffs * telemetry.NumPhases; len(rec.events) != want {
		t.Fatalf("total events = %d, want %d", len(rec.events), want)
	}
}

// TestTracerSilentOnFailedValidation: diffs rejected before the algorithm
// runs (nil trees, schema mismatches) emit no tracer events at all.
func TestTracerSilentOnFailedValidation(t *testing.T) {
	rec := &recordingTracer{}
	ctx := telemetry.ContextWithTracer(context.Background(), rec)
	b := exp.NewBuilder()
	n := b.MustN(exp.Num, int64(1))

	// Nil tree.
	if _, err := New(exp.Schema()).DiffScratch(ctx, nil, n, b.Alloc(), NewScratch(), nil); err == nil {
		t.Fatal("nil-source diff succeeded")
	}
	// Schema mismatch: a differ over an empty schema rejects exp trees.
	if _, err := New(sig.NewSchema("empty")).DiffScratch(ctx, n, n, b.Alloc(), NewScratch(), nil); err == nil {
		t.Fatal("schema-mismatch diff succeeded")
	}
	if len(rec.events) != 0 {
		t.Fatalf("failed diffs emitted %d events, want 0: %+v", len(rec.events), rec.events)
	}
}

// TestScratchPhaseTimesReset: Reset zeroes the recorded phases, and each
// DiffScratch run starts from zero rather than accumulating.
func TestScratchPhaseTimesReset(t *testing.T) {
	d := New(exp.Schema())
	s := NewScratch()
	g := exp.NewGen(7)
	before := g.Tree(200)
	after := g.MutateN(before, 3)
	alloc := uri.NewAllocator()
	src := tree.Clone(before, alloc, tree.SHA256)
	dst := tree.Clone(after, alloc, tree.SHA256)

	if _, err := d.DiffScratch(context.Background(), src, dst, alloc, s, nil); err != nil {
		t.Fatal(err)
	}
	if s.PhaseTimes().Total() == 0 {
		t.Fatal("no phase durations recorded")
	}
	s.Reset()
	if s.PhaseTimes() != (telemetry.PhaseTimes{}) {
		t.Fatalf("Reset left phase times %v", s.PhaseTimes())
	}
}
