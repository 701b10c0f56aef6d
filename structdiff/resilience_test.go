package structdiff_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/structdiff"
	"repro/structdiff/langs/exp"
)

// TestFacadeFallbackOnInjectedPanic drives the full degradation path
// through the public surface only: a fault injector armed at the diff site
// panics one pair, WithFallback rescues it with a root-replacement script
// that patches cleanly, and the engine's snapshot accounts for both the
// panic and the fallback.
func TestFacadeFallbackOnInjectedPanic(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	inj := structdiff.NewFaultInjector(1, structdiff.Fault{
		Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultPanic, Times: 1,
	})
	e, err := structdiff.NewEngine(sch,
		structdiff.WithFallback(structdiff.FallbackRootReplace),
		structdiff.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	pr := e.DiffPair(context.Background(), structdiff.Pair{Source: src, Target: dst, Alloc: alloc, Label: "poisoned"})
	if pr.Err != nil {
		t.Fatalf("pair failed despite fallback: %v", pr.Err)
	}
	if !pr.Stats.Fallback {
		t.Fatal("pair not flagged as fallback")
	}
	if err := structdiff.WellTyped(sch, pr.Result.Script); err != nil {
		t.Fatalf("fallback script ill-typed: %v", err)
	}
	patched, err := structdiff.Patch(src, pr.Result.Script, structdiff.WithSchema(sch))
	if err != nil {
		t.Fatalf("patching fallback script: %v", err)
	}
	if !structdiff.StructurallyEquivalent(patched, dst) || !structdiff.LiterallyEquivalent(patched, dst) {
		t.Error("fallback patch does not produce the target")
	}
	s := e.Snapshot()
	if s.Panics != 1 || s.Fallbacks != 1 {
		t.Errorf("Snapshot panics/fallbacks = %d/%d, want 1/1", s.Panics, s.Fallbacks)
	}
}

// TestFacadeDiffTimeout: a per-diff deadline set on an engine diff's
// context, with cause ErrDiffTimeout, surfaces as ErrDiffTimeout (without
// fallback) and counts as a timeout.
func TestFacadeDiffTimeout(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	inj := structdiff.NewFaultInjector(1, structdiff.Fault{
		Site: structdiff.FaultSiteDiff, Kind: structdiff.FaultDelay,
		Delay: 50 * time.Millisecond, Times: 1,
	})
	e, err := structdiff.NewEngine(sch, structdiff.WithFaultInjection(inj))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeoutCause(context.Background(), 10*time.Millisecond, structdiff.ErrDiffTimeout)
	defer cancel()
	_, err = e.Diff(ctx, src, dst, alloc)
	if !errors.Is(err, structdiff.ErrDiffTimeout) {
		t.Fatalf("Diff = %v, want ErrDiffTimeout", err)
	}
	if s := e.Snapshot(); s.Timeouts != 1 {
		t.Errorf("Snapshot.Timeouts = %d, want 1", s.Timeouts)
	}
}

// TestPatchAtomicRollsBack: a bad script leaves an in-place-patched MTree
// untouched, and the error carries the typed PatchError detail.
func TestPatchAtomicRollsBack(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := structdiff.MTreeFromTree(sch, src)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the script: append an edit referencing a URI the tree will
	// never contain.
	bad := &structdiff.Script{Edits: append(append([]structdiff.Edit{}, res.Script.Edits...),
		structdiff.Unload{Node: structdiff.NodeRef{Tag: "Num", URI: 1 << 40}})}
	err = structdiff.PatchAtomic(mt, bad)
	if err == nil {
		t.Fatal("PatchAtomic accepted a corrupt script")
	}
	if !errors.Is(err, structdiff.ErrNonCompliantScript) {
		t.Errorf("error %v does not match ErrNonCompliantScript", err)
	}
	var pe *structdiff.PatchError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not carry a *PatchError", err)
	}
	if pe.EditIndex != len(res.Script.Edits) || pe.Op != "unload" || !pe.RolledBack {
		t.Errorf("PatchError = edit #%d (%s, rolledBack=%v), want edit #%d (unload, rolled back)",
			pe.EditIndex, pe.Op, pe.RolledBack, len(res.Script.Edits))
	}

	// The tree is untouched: the uncorrupted script still applies in full.
	if err := structdiff.PatchAtomic(mt, res.Script); err != nil {
		t.Fatalf("valid script failed after rollback: %v", err)
	}
}

// TestPatchSingleWrap: the Patch facade no longer double-wraps — the error
// chain carries ErrNonCompliantScript exactly once, via PatchError.
func TestPatchSingleWrap(t *testing.T) {
	src, _, sch, _ := buildPair(t)
	bad := &structdiff.Script{Edits: []structdiff.Edit{
		structdiff.Unload{Node: structdiff.NodeRef{Tag: "Num", URI: 1 << 40}},
	}}
	_, err := structdiff.Patch(src, bad, structdiff.WithSchema(sch))
	if !errors.Is(err, structdiff.ErrNonCompliantScript) {
		t.Fatalf("Patch error %v does not match ErrNonCompliantScript", err)
	}
	var pe *structdiff.PatchError
	if !errors.As(err, &pe) {
		t.Fatalf("Patch error %T does not carry a *PatchError", err)
	}
}

// TestFacadeFaultInjectionAtEdit: the patch-site injector is reachable
// through the facade's MTree alias.
func TestFacadeFaultInjectionAtEdit(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	res, err := structdiff.Diff(src, dst, structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatal(err)
	}
	mt, err := structdiff.MTreeFromTree(sch, src)
	if err != nil {
		t.Fatal(err)
	}
	mt.InjectFaults(structdiff.NewFaultInjector(1, structdiff.Fault{
		Site: structdiff.FaultSiteEdit, Kind: structdiff.FaultError, Times: 1,
	}))
	err = structdiff.PatchAtomic(mt, res.Script)
	if !errors.Is(err, structdiff.ErrFaultInjected) {
		t.Fatalf("PatchAtomic = %v, want ErrFaultInjected", err)
	}
	// Fault exhausted; the rollback restored the tree, so the same script
	// now applies.
	if err := structdiff.PatchAtomic(mt, res.Script); err != nil {
		t.Fatalf("patch after fault exhausted: %v", err)
	}
}

// TestPatchAtomicNilTree pins the nil-input contract.
func TestPatchAtomicNilTree(t *testing.T) {
	if err := structdiff.PatchAtomic(nil, &structdiff.Script{}); !errors.Is(err, structdiff.ErrNilTree) {
		t.Fatalf("PatchAtomic(nil) = %v, want ErrNilTree", err)
	}
}

// TestExpSchemaName guards the test's literal "Num" tag against schema
// drift: the corrupt-script tests above reference it by name.
func TestExpSchemaName(t *testing.T) {
	g := exp.NewGen(1)
	if g.Schema().Lookup("Num") == nil {
		t.Fatal("exp schema no longer declares Num; update resilience tests")
	}
}

// TestFacadeClientResilience drives the client's retry policy through the
// public surface only: a retrying client converges on a drained service
// with a typed ErrServiceUnavailable in bounded attempts.
func TestFacadeClientResilience(t *testing.T) {
	src, dst, sch, _ := buildPair(t)
	srv, err := structdiff.NewServiceServer(structdiff.ServiceConfig{
		Langs: []string{"exp"}, Workers: 1,
	})
	if err != nil {
		t.Fatalf("NewServiceServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	c := structdiff.NewServiceClient(hs.URL, "exp", sch,
		structdiff.WithRetryPolicy(structdiff.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			Seed:        1,
		}),
	)
	defer c.Close()

	// Every attempt is refused by the draining server; the retry policy
	// bounds the attempts and surfaces the typed sentinel.
	if _, err := c.Diff(context.Background(), src, dst, nil); !errors.Is(err, structdiff.ErrServiceUnavailable) {
		t.Fatalf("Diff against drained server = %v, want ErrServiceUnavailable", err)
	}
	snap := c.ClientSnapshot()
	if snap.Attempts != 3 || snap.Retries != 2 {
		t.Fatalf("snapshot = %+v, want 3 attempts / 2 retries", snap)
	}
}
