package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/pylang"
	"repro/internal/tree"
)

// FileChange is one changed file within a commit: the typed trees before
// and after, plus the edit kinds applied.
type FileChange struct {
	Path   string
	Before *tree.Node
	After  *tree.Node
	Edits  []EditKind
}

// Commit is one synthetic commit: a set of changed files.
type Commit struct {
	Seq   int
	Files []FileChange
}

// Options parameterize history generation. The defaults (via
// DefaultOptions) are scaled to run the full evaluation pipeline in
// seconds; raise Commits and file sizes to approach the paper's corpus.
type Options struct {
	Seed int64
	// Files is the number of modules in the repository.
	Files int
	// Commits is the number of commits to generate.
	Commits int
	// MaxFilesPerCommit bounds how many files one commit touches.
	MaxFilesPerCommit int
	// MinNodes/MaxNodes bound the initial module sizes (AST node counts).
	MinNodes, MaxNodes int
	// MaxEditsPerFile bounds the number of edits applied to one file in
	// one commit (at least 1).
	MaxEditsPerFile int
}

// DefaultOptions returns a laptop-scale corpus configuration.
func DefaultOptions() Options {
	return Options{
		Seed:              1,
		Files:             20,
		Commits:           100,
		MaxFilesPerCommit: 4,
		MinNodes:          300,
		MaxNodes:          2500,
		MaxEditsPerFile:   4,
	}
}

// History is a generated repository history.
type History struct {
	Factory *pylang.Factory
	Commits []Commit
	// Final holds the current version of every file after all commits.
	Final map[string]*tree.Node
}

// Changes flattens the history into the list of all file changes, the unit
// of the paper's evaluation (2393 changed files across 500 commits).
func (h *History) Changes() []FileChange {
	var out []FileChange
	for _, c := range h.Commits {
		out = append(out, c.Files...)
	}
	return out
}

// Validate reports the first option Generate cannot use: Files,
// MaxFilesPerCommit, MinNodes or MaxEditsPerFile below 1, Commits below 0,
// or MaxNodes below MinNodes.
func (o Options) Validate() error {
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"Files", o.Files, 1}, {"Commits", o.Commits, 0}, {"MaxFilesPerCommit", o.MaxFilesPerCommit, 1},
		{"MinNodes", o.MinNodes, 1}, {"MaxNodes", o.MaxNodes, o.MinNodes}, {"MaxEditsPerFile", o.MaxEditsPerFile, 1},
	} {
		if f.val < f.min {
			return fmt.Errorf("corpus: %s is %d, want at least %d", f.name, f.val, f.min)
		}
	}
	return nil
}

// Generate builds a synthetic repository and evolves it through commits.
// The same Options always yield the same history. It panics on options
// that Validate rejects; callers taking options from outside the program
// check them with Validate first.
func Generate(opts Options) *History {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	g := &gen{rng: rand.New(rand.NewSource(opts.Seed)), f: pylang.NewFactory()}

	files := make(map[string]*tree.Node, opts.Files)
	paths := make([]string, opts.Files)
	for i := range paths {
		path := fmt.Sprintf("%s/%s_%d.py", g.pick(moduleNames), g.pick(moduleNames), i)
		paths[i] = path
		size := opts.MinNodes + g.rng.Intn(opts.MaxNodes-opts.MinNodes+1)
		files[path] = g.module(size)
	}

	h := &History{Factory: g.f, Final: files}
	for c := 0; c < opts.Commits; c++ {
		commit := Commit{Seq: c}
		n := 1 + g.rng.Intn(opts.MaxFilesPerCommit)
		seen := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			path := paths[g.rng.Intn(len(paths))]
			if seen[path] {
				continue
			}
			seen[path] = true
			before := files[path]
			after := before
			edits := 1 + g.rng.Intn(opts.MaxEditsPerFile)
			kinds := make([]EditKind, 0, edits)
			for e := 0; e < edits; e++ {
				var kind EditKind
				after, kind = g.mutate(after)
				kinds = append(kinds, kind)
			}
			commit.Files = append(commit.Files, FileChange{
				Path:   path,
				Before: before,
				After:  after,
				Edits:  kinds,
			})
			files[path] = after
		}
		h.Commits = append(h.Commits, commit)
	}
	return h
}

// RenderChange renders both versions of a change to Python source; useful
// for the CLI, the examples, and parser-in-the-loop tests.
func RenderChange(fc FileChange) (before, after string) {
	return pylang.Render(fc.Before), pylang.Render(fc.After)
}
