package corpus

import (
	"strings"
	"testing"

	"repro/internal/mtree"
	"repro/internal/pylang"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
)

func smallOptions(seed int64) Options {
	return Options{
		Seed:              seed,
		Files:             5,
		Commits:           15,
		MaxFilesPerCommit: 3,
		MinNodes:          120,
		MaxNodes:          500,
		MaxEditsPerFile:   3,
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	h1 := Generate(smallOptions(7))
	h2 := Generate(smallOptions(7))
	c1, c2 := h1.Changes(), h2.Changes()
	if len(c1) != len(c2) {
		t.Fatalf("change counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].Path != c2[i].Path {
			t.Fatalf("change %d path differs", i)
		}
		if !tree.Equal(c1[i].Before, c2[i].Before) || !tree.Equal(c1[i].After, c2[i].After) {
			t.Fatalf("change %d trees differ", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	h1 := Generate(smallOptions(1))
	h2 := Generate(smallOptions(2))
	same := true
	c1, c2 := h1.Changes(), h2.Changes()
	if len(c1) != len(c2) {
		same = false
	} else {
		for i := range c1 {
			if !tree.Equal(c1[i].Before, c2[i].Before) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical histories")
	}
}

func TestChangesAreRealEdits(t *testing.T) {
	h := Generate(smallOptions(3))
	changes := h.Changes()
	if len(changes) == 0 {
		t.Fatal("no changes generated")
	}
	for i, fc := range changes {
		if tree.Equal(fc.Before, fc.After) {
			t.Errorf("change %d (%v) is a no-op", i, fc.Edits)
		}
		if len(fc.Edits) == 0 {
			t.Errorf("change %d records no edit kinds", i)
		}
	}
}

func TestVersionsChainWithinFiles(t *testing.T) {
	h := Generate(smallOptions(4))
	last := make(map[string]*tree.Node)
	for _, c := range h.Commits {
		for _, fc := range c.Files {
			if prev, ok := last[fc.Path]; ok {
				if !tree.Equal(prev, fc.Before) {
					t.Fatalf("commit %d: before-tree of %s does not chain", c.Seq, fc.Path)
				}
			}
			last[fc.Path] = fc.After
		}
	}
	for path, final := range last {
		if !tree.Equal(h.Final[path], final) {
			t.Errorf("final tree of %s does not match last change", path)
		}
	}
}

func TestGeneratedModulesRenderAndReparse(t *testing.T) {
	h := Generate(smallOptions(5))
	for i, fc := range h.Changes() {
		before, after := RenderChange(fc)
		for v, src := range map[string]string{"before": before, "after": after} {
			mod, _, err := pylang.ParseNew(src)
			if err != nil {
				t.Fatalf("change %d %s does not reparse: %v\n%s", i, v, err, src)
			}
			want := fc.Before
			if v == "after" {
				want = fc.After
			}
			if !tree.Equal(mod, want) {
				t.Fatalf("change %d %s round trip diverged", i, v)
			}
		}
	}
}

// TestCorpusDrivesTruediff is the end-to-end smoke test of the evaluation
// pipeline: every generated change yields a well-typed, correct script.
func TestCorpusDrivesTruediff(t *testing.T) {
	h := Generate(smallOptions(6))
	sch := h.Factory.Schema()
	d := truediff.New(sch)
	for i, fc := range h.Changes() {
		res, err := d.Diff(fc.Before, fc.After, h.Factory.Alloc())
		if err != nil {
			t.Fatalf("change %d: %v", i, err)
		}
		if err := truechange.WellTyped(sch, res.Script); err != nil {
			t.Fatalf("change %d: ill-typed script: %v", i, err)
		}
		mt, err := mtree.FromTree(sch, fc.Before)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.Patch(res.Script); err != nil {
			t.Fatalf("change %d: patch: %v", i, err)
		}
		if !mt.EqualTree(fc.After) {
			t.Fatalf("change %d: patched ≠ after", i)
		}
		// Conciseness sanity: a handful of edits must not rewrite the file.
		if res.Script.EditCount() > fc.Before.Size()/2 {
			t.Errorf("change %d (%v): %d edits for a %d-node file",
				i, fc.Edits, res.Script.EditCount(), fc.Before.Size())
		}
	}
}

func TestEditKindCoverage(t *testing.T) {
	h := Generate(Options{
		Seed: 9, Files: 6, Commits: 120, MaxFilesPerCommit: 3,
		MinNodes: 150, MaxNodes: 400, MaxEditsPerFile: 3,
	})
	seen := make(map[EditKind]int)
	for _, fc := range h.Changes() {
		for _, k := range fc.Edits {
			seen[k]++
		}
	}
	for k := EditKind(0); k < editKinds; k++ {
		if seen[k] == 0 {
			t.Errorf("edit kind %s never occurred in 120 commits", k)
		}
	}
}

// TestOptionsValidate: Validate accepts the defaults and rejects each
// option Generate cannot use, naming it.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions: %v", err)
	}
	for _, c := range []struct {
		field string
		edit  func(*Options)
	}{
		{"Files", func(o *Options) { o.Files = 0 }},
		{"Commits", func(o *Options) { o.Commits = -1 }},
		{"MaxFilesPerCommit", func(o *Options) { o.MaxFilesPerCommit = 0 }},
		{"MinNodes", func(o *Options) { o.MinNodes = 0 }},
		{"MaxNodes", func(o *Options) { o.MinNodes, o.MaxNodes = 2000, 100 }},
		{"MaxEditsPerFile", func(o *Options) { o.MaxEditsPerFile = 0 }},
	} {
		o := DefaultOptions()
		c.edit(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate = %v, want an error naming it", c.field, err)
		}
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid options should panic")
		}
	}()
	Generate(Options{Files: 0})
}

func TestEditKindStrings(t *testing.T) {
	for k := EditKind(0); k < editKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("edit kind %d lacks a name", k)
		}
	}
	if editKinds.String() != "unknown" {
		t.Error("sentinel should be unknown")
	}
}

// TestRenderReparseAcrossSeeds stresses the text round trip over several
// independent histories.
func TestRenderReparseAcrossSeeds(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		h := Generate(Options{
			Seed: seed, Files: 3, Commits: 10, MaxFilesPerCommit: 2,
			MinNodes: 150, MaxNodes: 450, MaxEditsPerFile: 3,
		})
		for i, fc := range h.Changes() {
			after := pylang.Render(fc.After)
			mod, _, err := pylang.ParseNew(after)
			if err != nil {
				t.Fatalf("seed %d change %d: %v\n%s", seed, i, err, after)
			}
			if !tree.Equal(mod, fc.After) {
				t.Fatalf("seed %d change %d: round trip diverged", seed, i)
			}
		}
	}
}
