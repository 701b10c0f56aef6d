package evaluation

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/tree"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// concisenessPins fix the total compound edit count paper-default truediff
// emits over two seeded histories: one with light edits (at most 2 per file
// per commit, the common case in real histories) and one with heavy edits
// (up to 10, which degrades subtree reuse). Edit counts are deterministic,
// so the pins are exact.
var concisenessPins = []struct {
	name  string
	opts  corpus.Options
	edits int
}{
	{"light", corpus.Options{Seed: 12, Files: 6, Commits: 20, MaxFilesPerCommit: 3, MinNodes: 600, MaxNodes: 1500, MaxEditsPerFile: 2}, 579},
	{"heavy", corpus.Options{Seed: 12, Files: 6, Commits: 20, MaxFilesPerCommit: 3, MinNodes: 600, MaxNodes: 1500, MaxEditsPerFile: 10}, 2358},
}

// totalEdits diffs every file change of the history generated from opts,
// each pair cloned under a fresh allocator, and sums the scripts' compound
// edit counts.
func totalEdits(tb testing.TB, opts corpus.Options, dopts truediff.Options) int {
	tb.Helper()
	h := corpus.Generate(opts)
	d := truediff.NewWithOptions(h.Factory.Schema(), dopts)
	total := 0
	for _, fc := range h.Changes() {
		alloc := uri.NewAllocator()
		src := tree.Clone(fc.Before, alloc, tree.SHA256)
		dst := tree.Clone(fc.After, alloc, tree.SHA256)
		res, err := d.Diff(src, dst, alloc)
		if err != nil {
			tb.Fatalf("%s: %v", fc.Path, err)
		}
		total += res.Script.EditCount()
	}
	return total
}

// TestConcisenessPinned is the conciseness gate: a change that makes
// truediff's scripts longer on either history fails it. A change that makes
// them shorter passes and logs the new total, to be committed as the pin.
func TestConcisenessPinned(t *testing.T) {
	for _, p := range concisenessPins {
		got := totalEdits(t, p.opts, truediff.Options{})
		switch {
		case got > p.edits:
			t.Errorf("%s edits: %d compound edits, pinned at %d: scripts grew", p.name, got, p.edits)
		case got < p.edits:
			t.Logf("%s edits: %d compound edits, below the pin of %d: commit the new total", p.name, got, p.edits)
		}
	}
}

// TestConcisenessGateTrips shows the gate can fail: restricting reuse to
// exactly equal subtrees (the ExactOnly ablation) yields longer scripts
// than the light-edit pin allows.
func TestConcisenessGateTrips(t *testing.T) {
	p := concisenessPins[0]
	got := totalEdits(t, p.opts, truediff.Options{Equiv: truediff.ExactOnly})
	if got <= p.edits {
		t.Errorf("ExactOnly: %d compound edits, within the %s pin of %d; the gate would not trip", got, p.name, p.edits)
	}
	t.Logf("ExactOnly: %d compound edits against the %s pin of %d", got, p.name, p.edits)
}
