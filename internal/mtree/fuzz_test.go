package mtree

import (
	"errors"
	"testing"

	"repro/internal/derrors"
	"repro/internal/exp"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// FuzzTypecheckPatchAgreement is the fuzzed form of the paper's safety
// results (Theorem 3.6 / Definition 3.5): for an arbitrary decoded script
// over a fixed tree,
//
//   - Comply and Patch agree — a script that passes the compliance check
//     applies in full, and one that fails it is rejected with an error
//     matching ErrNonCompliantScript;
//   - a failed Patch is a no-op: the tree's observable state is exactly
//     its pre-patch state (transactional rollback);
//   - a patch that succeeds and leaves the tree closed converts back
//     (ToTree) to exactly the tree a full rebuild of every node gives;
//   - none of Comply, Patch, or the linear type checker panics, whatever
//     the script.
func FuzzTypecheckPatchAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// A seed decoding to a detach of a plausible small-URI node.
	f.Add([]byte{0, 1, 2, 9, 1, 3})
	f.Add([]byte{2, 1, 5, 0, 3, 1, 7, 7, 4, 1, 1, 1, 1, 1})
	for _, c := range closingSeeds {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := FuzzDecodeScript(data)

		g := exp.NewGen(FuzzTreeSeed)
		mt, err := FromTree(g.Schema(), g.Tree(FuzzTreeSize))
		if err != nil {
			t.Fatal(err)
		}
		before := dump(mt)

		// The linear type checker must never panic on arbitrary edits.
		st := truechange.ClosedState()
		_ = truechange.Check(g.Schema(), s, st)

		complyErr := mt.Comply(s)
		patchErr := mt.Patch(s)

		if complyErr == nil && patchErr != nil {
			t.Fatalf("script passes Comply but Patch failed: %v\nscript: %v", patchErr, s.Edits)
		}
		if complyErr != nil && patchErr == nil {
			t.Fatalf("script fails Comply (%v) but Patch succeeded\nscript: %v", complyErr, s.Edits)
		}
		if patchErr == nil && mt.CheckClosed() == nil {
			got, err := mt.ToTree(uri.NewAllocator())
			want, wantErr := rebuildAll(mt, uri.NewAllocator())
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("ToTree error %v, full rebuild error %v\nscript: %v", err, wantErr, s.Edits)
			}
			if err == nil {
				if msg := tree.Mismatch(got, want); msg != "" {
					t.Fatalf("ToTree differs from the full rebuild: %s\nscript: %v", msg, s.Edits)
				}
			}
		}
		if patchErr != nil {
			if !errors.Is(patchErr, derrors.ErrNonCompliantScript) {
				t.Fatalf("patch error does not match ErrNonCompliantScript: %v", patchErr)
			}
			if after := dump(mt); after != before {
				t.Fatalf("failed patch mutated the tree:\n--- before ---\n%s--- after ---\n%s", before, after)
			}
		}
	})
}

// closingSeeds decode to scripts that apply in full and leave the fuzz
// target's fixed tree closed, so every run of the target, fuzzing or not,
// checks ToTree against the full rebuild; random inputs rarely get there.
// The fixed tree is
// Let#16(Sub#3(Num#1{25}, Num#2{56}), Call#15(Add#14(Mul#12(…), Num#13{37}))).
var closingSeeds = []struct {
	name string
	data []byte
}{
	{"move", []byte{
		0, 1, 0, 1, 0, 1, 3, 3, // detach Num#1 from Sub#3.e1
		0, 1, 0, 2, 1, 1, 3, 3, // detach Num#2 from Sub#3.e2
		1, 1, 0, 2, 0, 1, 3, 3, // attach Num#2 at Sub#3.e1
		1, 1, 0, 1, 1, 1, 3, 3, // attach Num#1 at Sub#3.e2
	}},
	{"update", []byte{
		4, 1, 0, 1, 1, 5, 0, 25, 1, 5, 0, 99, // update Num#1's n from 25 to 99
	}},
	{"load with unload", []byte{
		0, 1, 0, 13, 1, 1, 2, 14, // detach Num#13 from Add#14.e2
		3, 0, 1, 0, 13, 1, 5, 0, 37, // unload Num#13{n=37}
		2, 0, 1, 0, 50, 1, 5, 0, 7, // load Num#50{n=7}
		1, 1, 0, 50, 1, 1, 2, 14, // attach Num#50 at Add#14.e2
	}},
}

// TestClosingSeedsApply keeps the closing seeds honest: each decodes to a
// script that applies in full and leaves the tree closed.
func TestClosingSeedsApply(t *testing.T) {
	for _, c := range closingSeeds {
		g := exp.NewGen(FuzzTreeSeed)
		mt, err := FromTree(g.Schema(), g.Tree(FuzzTreeSize))
		if err != nil {
			t.Fatal(err)
		}
		s := FuzzDecodeScript(c.data)
		if err := mt.Patch(s); err != nil {
			t.Errorf("%s: %v\nscript: %v", c.name, err, s.Edits)
			continue
		}
		if err := mt.CheckClosed(); err != nil {
			t.Errorf("%s: patched tree is not closed: %v", c.name, err)
		}
	}
}
