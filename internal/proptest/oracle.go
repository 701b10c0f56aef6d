package proptest

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/derrors"
	"repro/internal/faultinject"
	"repro/internal/mtree"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"

	"repro/structdiff"
)

// The pair-oracle properties, named for failure reports and the property
// catalog in docs/TESTING.md (the merge-oracle properties live in
// merge.go).
const (
	PropWellTyped   = "well-typed"        // Conjecture 4.2: scripts pass the linear type check and Comply
	PropConvergence = "convergence"       // Conjecture 4.3: patch(diff(a,b), a) ≃ b
	PropSelfDiff    = "empty-self-diff"   // diff(a,a) = ∅
	PropRollback    = "fault-rollback"    // failed patches roll back exactly and re-apply cleanly
	PropOrdering    = "edit-ordering"     // all negative edits precede all positive edits
	PropInvert      = "invert-round-trip" // Patch(s); Patch(Invert(s)) is an exact no-op, including NaN/±Inf literals
	PropCodec       = "codec-round-trip"  // the JSON wire codec carries every script with bit-identical literals
)

// PropertyError tags an oracle failure with the violated property.
type PropertyError struct {
	Property string
	Err      error
}

func (e *PropertyError) Error() string { return e.Property + ": " + e.Err.Error() }
func (e *PropertyError) Unwrap() error { return e.Err }

func propErr(prop, format string, args ...any) error {
	return &PropertyError{Property: prop, Err: fmt.Errorf(format, args...)}
}

// CheckPair runs the full seven-property oracle on one generated pair
// through the public structdiff facade. salt deterministically picks the
// edit index the rollback property injects its fault at. It returns the
// emitted script (also on most failures, for reporting and seeding) and
// the first property violation, tagged with a PropertyError.
//
// The opts are forwarded to every facade call, so the oracle can exercise
// non-default equivalence modes, selection orders, and ablations; a
// WithSchema option is appended automatically.
func CheckPair(sch *sig.Schema, p Pair, salt int64, opts ...structdiff.Option) (*truechange.Script, error) {
	o := append(append([]structdiff.Option(nil), opts...), structdiff.WithSchema(sch))

	res, err := structdiff.Diff(p.Source, p.Target, o...)
	if err != nil {
		return nil, propErr(PropWellTyped, "diff failed: %w", err)
	}
	script := res.Script

	// Property 1 — well-typedness: the emitted script passes the linear
	// type check (closed-to-closed judgement) and complies with the source.
	if err := structdiff.WellTyped(sch, script); err != nil {
		return script, propErr(PropWellTyped, "script is ill-typed: %w", err)
	}
	mt, err := mtree.FromTree(sch, p.Source)
	if err != nil {
		return script, propErr(PropWellTyped, "source tree rejected by mtree: %w", err)
	}
	if err := mt.Comply(script); err != nil {
		return script, propErr(PropWellTyped, "script does not comply with its own source: %w", err)
	}

	// Property 5 — ordering: every negative edit (detach, unload) precedes
	// every positive edit, the §4.4 buffer invariant the semantics relies
	// on.
	if err := checkOrdering(script); err != nil {
		return script, err
	}

	// Property 2 — convergence: patching the source yields a tree
	// structurally and literally equal to the target (URIs may differ).
	if err := mt.Patch(script); err != nil {
		return script, propErr(PropConvergence, "patch failed after passing Comply: %w", err)
	}
	if !mt.EqualTree(p.Target) {
		return script, propErr(PropConvergence, "patched tree differs from target:\npatched: %s\ntarget size %d", mt, p.Target.Size())
	}
	if res.Patched == nil {
		return script, propErr(PropConvergence, "diff returned a nil patched tree")
	}
	if res.Patched.ExactHash() != p.Target.ExactHash() {
		return script, propErr(PropConvergence, "Result.Patched differs from target (exact-hash mismatch)")
	}
	// structdiff.Patch and truediff's step 4 build the patched tree
	// independently; they must build the very same nodes, on the pair and
	// on its FNV-64 clones.
	if err := checkPatched(p.Source, res, o); err != nil {
		return script, err
	}
	alloc := structdiff.NewAllocator()
	fsrc, fdst := structdiff.Clone(p.Source, alloc, structdiff.FNV64), structdiff.Clone(p.Target, alloc, structdiff.FNV64)
	fres, err := structdiff.Diff(fsrc, fdst, o...)
	if err != nil {
		return script, propErr(PropConvergence, "diff of the FNV-64 clones failed: %w", err)
	}
	if err := checkPatched(fsrc, fres, o); err != nil {
		return script, err
	}

	// Property 3 — empty self-diff: diffing a tree against itself yields
	// the empty script.
	selfRes, err := structdiff.Diff(p.Source, p.Source, o...)
	if err != nil {
		return script, propErr(PropSelfDiff, "self-diff failed: %w", err)
	}
	if n := len(selfRes.Script.Edits); n != 0 {
		return script, propErr(PropSelfDiff, "diff(a,a) has %d edits, want 0: %v", n, selfRes.Script.Edits)
	}

	// Property 4 — fault rollback round trip: a patch failing mid-script
	// (deterministic injected fault at edit salt%len) leaves the tree in
	// exactly its pre-patch state, and a clean re-patch then converges.
	if len(script.Edits) > 0 {
		if err := checkRollback(sch, p, script, salt); err != nil {
			return script, err
		}
	}

	// Property 6 — invert round trip: applying the script and then its
	// inverse is an exact no-op, byte-for-byte including URIs. This is the
	// property that pins the PR 4 bug class at the Invert level: literal
	// restoration must use bit-pattern float semantics, so a NaN or −0
	// written by an Update (or re-loaded by an inverted Unload) must come
	// back as exactly the literal the source held.
	if err := checkInvert(sch, p, script); err != nil {
		return script, err
	}

	// Property 7 — codec round trip: the script survives its JSON wire
	// format with every literal bit-identical, NaN, ±Inf and −0 included.
	if err := checkCodec(script); err != nil {
		return script, err
	}
	return script, nil
}

// checkCodec asserts that json.Marshal then Unmarshal gives back the
// script, literals compared by bit pattern.
func checkCodec(s *truechange.Script) error {
	enc, err := json.Marshal(s)
	if err != nil {
		return propErr(PropCodec, "encode failed: %w", err)
	}
	var back truechange.Script
	if err := json.Unmarshal(enc, &back); err != nil {
		return propErr(PropCodec, "decode failed: %w\nencoded: %s", err, enc)
	}
	if !truechange.EqualEdits(s.Edits, back.Edits) {
		return propErr(PropCodec, "round trip changed the script:\nsent: %s\ngot:  %s", s, &back)
	}
	return nil
}

// checkPatched asserts that structdiff.Patch of the diff's script builds
// Result.Patched node by node: tags, literals, URIs and both digests.
func checkPatched(src *tree.Node, res *structdiff.Result, o []structdiff.Option) error {
	patched, err := structdiff.Patch(src, res.Script, o...)
	if err != nil {
		return propErr(PropConvergence, "structdiff.Patch failed: %w", err)
	}
	if msg := tree.Mismatch(patched, res.Patched); msg != "" {
		return propErr(PropConvergence, "structdiff.Patch differs from Result.Patched: %s", msg)
	}
	return nil
}

// checkInvert asserts Patch(s); Patch(Invert(s)) restores the source tree
// exactly (the mtree renders identically, so URIs, literals — compared by
// bit pattern — and slot layout all round-trip).
func checkInvert(sch *sig.Schema, p Pair, script *truechange.Script) error {
	mt, err := mtree.FromTree(sch, p.Source)
	if err != nil {
		return propErr(PropInvert, "source tree rejected by mtree: %w", err)
	}
	before := mt.String()
	if err := mt.Patch(script); err != nil {
		return propErr(PropInvert, "forward patch failed: %w", err)
	}
	inv := truechange.Invert(script)
	if err := structdiff.WellTyped(sch, inv); err != nil {
		return propErr(PropInvert, "inverse script is ill-typed: %w", err)
	}
	if err := mt.Patch(inv); err != nil {
		return propErr(PropInvert, "inverse patch failed: %w", err)
	}
	if after := mt.String(); after != before {
		return propErr(PropInvert, "Patch(s); Patch(Invert(s)) is not a no-op:\nbefore: %s\nafter:  %s", before, after)
	}
	if !mt.EqualTree(p.Source) {
		return propErr(PropInvert, "inverted tree differs from the source")
	}
	return nil
}

// checkOrdering asserts the negative-before-positive edit order.
func checkOrdering(s *truechange.Script) error {
	seenPositive := false
	for i, e := range s.Edits {
		if e.Negative() {
			if seenPositive {
				return propErr(PropOrdering, "negative edit #%d (%s) follows a positive edit", i, e)
			}
		} else {
			seenPositive = true
		}
	}
	return nil
}

// checkRollback injects one Error fault at edit salt%len of a fresh patch,
// asserts the failed patch is an exact no-op, then re-patches cleanly and
// asserts convergence.
func checkRollback(sch *sig.Schema, p Pair, script *truechange.Script, salt int64) error {
	at := uint64(salt) % uint64(len(script.Edits))
	mt, err := mtree.FromTree(sch, p.Source)
	if err != nil {
		return propErr(PropRollback, "source tree rejected by mtree: %w", err)
	}
	before := mt.String()
	beforeSize := mt.Size()

	mt.InjectFaults(faultinject.New(salt, faultinject.Fault{
		Site: mtree.FaultSiteEdit, Kind: faultinject.Error, After: at, Times: 1,
	}))
	err = mt.Patch(script)
	if err == nil {
		return propErr(PropRollback, "patch succeeded despite a fault injected at edit %d of %d", at, len(script.Edits))
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		return propErr(PropRollback, "patch failed, but not with the injected fault: %w", err)
	}
	if !errors.Is(err, derrors.ErrNonCompliantScript) {
		return propErr(PropRollback, "patch failure does not match ErrNonCompliantScript: %w", err)
	}
	var pe *mtree.PatchError
	if !errors.As(err, &pe) {
		return propErr(PropRollback, "patch failure is not a *PatchError: %w", err)
	}
	if pe.EditIndex != int(at) {
		return propErr(PropRollback, "fault injected at edit %d, PatchError reports edit %d", at, pe.EditIndex)
	}
	if wantRB := at > 0; pe.RolledBack != wantRB {
		return propErr(PropRollback, "PatchError.RolledBack = %v at edit %d, want %v", pe.RolledBack, at, wantRB)
	}
	if after := mt.String(); after != before || mt.Size() != beforeSize {
		return propErr(PropRollback, "failed patch mutated the tree:\nbefore: %s\nafter:  %s", before, after)
	}

	// The fault was Times:1, so the retry runs clean and must converge.
	if err := mt.Patch(script); err != nil {
		return propErr(PropRollback, "re-patch after rollback failed: %w", err)
	}
	if !mt.EqualTree(p.Target) {
		return propErr(PropRollback, "re-patched tree after rollback differs from target")
	}
	return nil
}
