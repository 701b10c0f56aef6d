package pylang_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pylang"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// reparseCases are pairs of versions whose edits cross statement
// boundaries in every way the index must survive.
var reparseCases = []struct{ name, old, new string }{
	{"if-elif-else",
		"x = 0\nif a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\ny = x\n",
		"x = 0\nif a:\n    x = 1\nelif b:\n    x = 20\nelse:\n    x = 3\ny = x\n"},
	{"elif-added",
		"if a:\n    x = 1\nelse:\n    x = 3\n",
		"if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n"},
	{"try-except-else-finally",
		"try:\n    f()\nexcept E as e:\n    g(e)\nexcept:\n    pass\nelse:\n    h()\nfinally:\n    done()\nz = 1\n",
		"try:\n    f()\nexcept E as e:\n    g(e, 1)\nexcept:\n    pass\nelse:\n    h()\nfinally:\n    done()\nz = 1\n"},
	{"else-joins-next-line",
		"if a:\n    pass\nx = 1\n",
		"if a:\n    pass\nelse:\n    x = 1\n"},
	{"else-leaves",
		"if a:\n    pass\nelse:\n    x = 1\n",
		"if a:\n    pass\nx = 1\n"},
	{"one-line-suites",
		"if x: pass\ny = 1\n",
		"if x: pass\nelse: pass\ny = 1\n"},
	{"one-line-suites-edited",
		"if x: pass\nelse: pass\nwhile y: y -= 1\n",
		"if x: pass\nelse: z = 2\nwhile y: y -= 1\n"},
	{"stacked-decorators",
		"@a\n@b(1)\ndef f():\n    return 1\n\n@c\nclass K:\n    @property\n    def p(self):\n        return 2\n",
		"@a\n@b(2)\ndef f():\n    return 1\n\n@c\nclass K:\n    @property\n    def p(self):\n        return 2\n"},
	{"decorator-added",
		"def f():\n    return 1\nclass K:\n    def p(self):\n        return 2\n",
		"@d\ndef f():\n    return 1\nclass K:\n    @d\n    def p(self):\n        return 2\n"},
	{"method-moved-between-classes",
		"class A:\n    def f(self):\n        return 1\n\n    def g(self):\n        return 2\n\nclass B:\n    def h(self):\n        return 3\n",
		"class A:\n    def f(self):\n        return 1\n\nclass B:\n    def g(self):\n        return 2\n\n    def h(self):\n        return 3\n"},
	{"statement-moved-into-function",
		"x = 1\ndef f():\n    return x\n",
		"def f():\n    x = 1\n    return x\n"},
	{"statement-moved-out-of-class",
		"class A:\n    x = 1\n    def f(self):\n        return 1\n",
		"class A:\n    def f(self):\n        return 1\n    x = 1\n"},
	{"top-level-insert",
		"import os\ndef f():\n    return 1\ny = 2\n",
		"import os\nz = 0\ndef f():\n    return 1\ny = 2\n"},
	{"top-level-delete",
		"import os\nz = 0\ndef f():\n    return 1\ny = 2\n",
		"import os\ndef f():\n    return 1\ny = 2\n"},
	{"multi-line-statements",
		"x = [\n    1,\n    2,\n]\ny = 1 + \\\n    2\ndef f(a,\n      b):\n    return (a +\n            b)\n",
		"x = [\n    1,\n    3,\n]\ny = 1 + \\\n    2\ndef f(a,\n      b):\n    return (a +\n            b)\nz = {\n    'k': 1}\n"},
	{"backslash-line",
		"if a:\n    pass\n\\\nx = 1\n",
		"if a:\n    pass\n\\\nx = 2\n"},
	{"one-chunk-several-nodes",
		"a = 1; b = 2\nfrom m import p, q\nx = y = z = f(0)\nglobal g, h\n",
		"a = 1; b = 2\nfrom m import p, q, r\nx = y = z = f(0)\nglobal g, h\nc = 3; d = 4\n"},
	{"identical-statements",
		"x = 1\nx = 1\ndef f():\n    x = 1\n    x = 1\n",
		"x = 1\nx = 1\nx = 1\ndef f():\n    x = 1\n    x = 1\n    return x\n"},
	{"comments-and-blank-lines",
		"# head\nx = 1\n\n# about f\ndef f():\n    # inside\n    return 1\n\n\n# trailing\n",
		"# head\nx = 1\n\n# about f, edited\ndef f():\n    # inside\n    return 1\n\n\n# trailing\ny = 2\n"},
	{"comment-at-outer-indentation",
		"class A:\n    def f(self):\n        pass\n# between\n    def g(self):\n        pass\n",
		"class A:\n    def f(self):\n        pass\n# between\n    def g(self):\n        return 1\n"},
	{"no-final-newline",
		"def f():\n    return 1\nx = 1",
		"def f():\n    return 1\nx = 2"},
	{"newline-added-at-end",
		"def f():\n    if a:\n        return 1",
		"def f():\n    if a:\n        return 1\n"},
	{"tab-indentation",
		"class A:\n\tdef f(self):\n\t\treturn 1\n\tdef g(self):\n\t\treturn 2\n",
		"class A:\n\tdef f(self):\n\t\treturn 1\n\tdef g(self):\n\t\treturn 3\n"},
	{"crlf",
		"x = 1\r\n\r\ndef f():\r\n    return 1\r\n\r\ny = 2\r\n",
		"x = 1\r\n\r\ndef f():\r\n    return 2\r\n\r\ny = 2\r\n"},
	{"crlf-to-lf",
		"x = 1\r\ndef f():\r\n    return 1\r\n",
		"x = 1\ndef f():\n    return 1\n"},
	{"indentation-changed",
		"def f():\n    if a:\n        return 1\n    return 2\n",
		"def f():\n  if a:\n        return 1\n  return 2\n"},
	{"body-repeats-later-nested-statements", repeatsNestedOld, repeatsNestedNew},
	{"unchanged",
		sampleModule,
		sampleModule},
	{"renamed-class-keeps-methods",
		sampleModule,
		strings.Replace(sampleModule, "class Stack:", "class Pile(object):", 1)},
}

// A changed function's body repeats, twice, the statement nested in each
// of two later, unchanged functions (TestReparseAdoptsEachRecordOnce).
const (
	repeatsNestedOld = "def f():\n    pass\ndef g():\n    y = 2\n    return y\ndef h():\n    y = 2\n"
	repeatsNestedNew = "def f():\n    y = 2\n    y = 2\ndef g():\n    y = 2\n    return y\ndef h():\n    y = 2\n"
)

const sampleModule = `import os
from collections import deque, OrderedDict

LIMIT = 10

class Stack:
    def __init__(self):
        self.items = []

    def push(self, item):
        self.items.append(item)

    def pop(self):
        if not self.items:
            raise IndexError("empty")
        return self.items.pop()

def fib(n):
    a, b = 0, 1
    for i in range(n):
        a, b = b, a + b
    return a

try:
    main()
except KeyError as e:
    print(e)
finally:
    cleanup()
`

// returned maps every URI a factory has handed out to the node it named.
type returned struct {
	uris map[uri.URI]*tree.Node
}

func newReturned() *returned {
	return &returned{uris: map[uri.URI]*tree.Node{}}
}

// add records t, and fails the test if a node or a URI occurs twice
// within t, or if a URI of t names another node than in an earlier tree.
// A reparse shares its reused statements with earlier trees, so a node
// may occur in several of them, always under its one URI.
func (r *returned) add(t *testing.T, what string, mod *tree.Node) {
	t.Helper()
	own := map[uri.URI]*tree.Node{}
	tree.Walk(mod, func(n *tree.Node) {
		if m, ok := own[n.URI]; ok {
			if m == n {
				t.Fatalf("%s: node %s%s occurs twice in the tree", what, n.Tag, n.URI)
			}
			t.Fatalf("%s: URI %s occurs twice in the tree", what, n.URI)
		}
		own[n.URI] = n
		if m, ok := r.uris[n.URI]; ok && m != n {
			t.Fatalf("%s: URI %s names %s here and another node, %s, in an earlier tree", what, n.URI, n.Tag, m.Tag)
		}
	})
	for u, n := range own {
		r.uris[u] = n
	}
}

// sameTree fails the test unless got equals want node by node: tags,
// literals, digests and schema records, URIs aside.
func sameTree(t *testing.T, what string, got, want *tree.Node) {
	t.Helper()
	if !tree.Equal(got, want) || got.ExactHash() != want.ExactHash() {
		t.Fatalf("%s: reparse differs from a fresh parse:\n got %s\nwant %s", what, got, want)
	}
	var walk func(a, b *tree.Node)
	walk = func(a, b *tree.Node) {
		if a.ExactHash() != b.ExactHash() || a.Size() != b.Size() || a.Height() != b.Height() {
			t.Fatalf("%s: %s%s carries other digests than the fresh parse's %s", what, a.Tag, a.URI, b.Tag)
		}
		if (a.Schema() == nil) != (b.Schema() == nil) {
			t.Fatalf("%s: %s%s: schema record differs from the fresh parse's", what, a.Tag, a.URI)
		}
		for i := range a.Kids {
			walk(a.Kids[i], b.Kids[i])
		}
	}
	walk(got, want)
}

// reparse parses src through f and checks the result against a fresh
// parse and against every tree f returned before.
func reparse(t *testing.T, what string, f *pylang.Factory, seen *returned, src string) *tree.Node {
	t.Helper()
	got, err := pylang.Parse(src, f)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, _, err := pylang.ParseNew(src)
	if err != nil {
		t.Fatalf("%s: fresh parse: %v", what, err)
	}
	sameTree(t, what, got, want)
	if got.Schema() != f.Schema() {
		t.Fatalf("%s: the reparsed tree lost its schema record", what)
	}
	seen.add(t, what, got)
	return got
}

func TestReparseMatchesFreshParse(t *testing.T) {
	for _, c := range reparseCases {
		t.Run(c.name, func(t *testing.T) {
			f, seen := pylang.NewFactory(), newReturned()
			reparse(t, "old", f, seen, c.old)
			reparse(t, "new", f, seen, c.new)
			reparse(t, "new again", f, seen, c.new)
			reparse(t, "old again", f, seen, c.old)
		})
	}
}

// TestReparseCorpusHistories parses rendered corpus histories version by
// version through one factory per file, as an editor would.
func TestReparseCorpusHistories(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		h := corpus.Generate(corpus.Options{
			Seed: seed, Files: 3, Commits: 30, MaxFilesPerCommit: 2,
			MinNodes: 300, MaxNodes: 900, MaxEditsPerFile: 2,
		})
		factories := map[string]*pylang.Factory{}
		seen := map[string]*returned{}
		for i, fc := range h.Changes() {
			f := factories[fc.Path]
			if f == nil {
				f, seen[fc.Path] = pylang.NewFactory(), newReturned()
				factories[fc.Path] = f
				reparse(t, fc.Path, f, seen[fc.Path], pylang.Render(fc.Before))
			}
			got := reparse(t, fc.Path, f, seen[fc.Path], pylang.Render(fc.After))
			if !tree.Equal(got, fc.After) {
				t.Fatalf("seed %d change %d: reparse differs from the corpus tree", seed, i)
			}
		}
	}
}

// largeModule renders a corpus module of about 1,200 nodes.
func largeModule(t *testing.T) (string, int) {
	t.Helper()
	h := corpus.Generate(corpus.Options{
		Seed: 5, Files: 1, Commits: 0, MaxFilesPerCommit: 1,
		MinNodes: 1200, MaxNodes: 1200, MaxEditsPerFile: 1,
	})
	var src string
	for _, mod := range h.Final {
		src = pylang.Render(mod)
	}
	mod, _, err := pylang.ParseNew(src)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Size() < 1000 {
		t.Fatalf("module has %d nodes, want at least 1,000", mod.Size())
	}
	return src, mod.Size()
}

// allocated returns the heap allocations fn makes and their bytes.
func allocated(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestReparseSharesUnchangedStatements pins that a reparse returns the
// statements it reused by pointer: every top-level statement of an
// unchanged module is the previous tree's own node.
func TestReparseSharesUnchangedStatements(t *testing.T) {
	f := pylang.NewFactory()
	prev, err := pylang.Parse(sampleModule, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pylang.Parse(sampleModule, f)
	if err != nil {
		t.Fatal(err)
	}
	was, is := pylang.ListElems(prev.Kids[0]), pylang.ListElems(got.Kids[0])
	if len(is) != len(was) || len(is) == 0 {
		t.Fatalf("reparse has %d top-level statements, the previous tree %d", len(is), len(was))
	}
	for i := range is {
		if is[i] != was[i] {
			t.Errorf("statement %d (%s) is a new node, not the previous tree's %s%s", i, is[i].Tag, was[i].Tag, was[i].URI)
		}
	}
}

// TestReparseAdoptsEachRecordOnce pins the record chain and the copy
// path. f's new body adopts the statements nested in g and h, first g's,
// then h's through the chain. g and h then find their records taken and
// are copies: new nodes, equal to the old ones.
func TestReparseAdoptsEachRecordOnce(t *testing.T) {
	f, seen := pylang.NewFactory(), newReturned()
	prev := reparse(t, "old", f, seen, repeatsNestedOld)
	got := reparse(t, "new", f, seen, repeatsNestedNew)
	body := func(def *tree.Node) []*tree.Node { return pylang.ListElems(def.Kids[1]) }
	was, is := pylang.ListElems(prev.Kids[0]), pylang.ListElems(got.Kids[0])
	if fb := body(is[0]); fb[0] != body(was[1])[0] || fb[1] != body(was[2])[0] {
		t.Errorf("f's body did not adopt the statements nested in g and h, in that order")
	}
	for i, name := range []string{"g", "h"} {
		if d := is[i+1]; d == was[i+1] || !tree.Equal(d, was[i+1]) {
			t.Errorf("%s is not a copy of the previous tree's %s", name, name)
		}
	}
}

// TestReparseAllocations guards what reuse buys: reparsing an unchanged
// module shares its statements instead of lexing them into new nodes, so
// beyond the tokens it allocates little more than the top-level spine.
func TestReparseAllocations(t *testing.T) {
	src, size := largeModule(t)
	fresh := testing.AllocsPerRun(5, func() { _, _, _ = pylang.ParseNew(src) }) / float64(size)
	f := pylang.NewFactory()
	if _, err := pylang.Parse(src, f); err != nil {
		t.Fatal(err)
	}
	again := testing.AllocsPerRun(10, func() { _, _ = pylang.Parse(src, f) }) / float64(size)
	const runs = 10
	_, total := allocated(func() {
		for i := 0; i < runs; i++ {
			_, _ = pylang.Parse(src, f)
		}
	})
	bytes := float64(total) / runs / float64(size)
	t.Logf("%d nodes: a fresh parse allocates %.2f times per node, a reparse %.2f times and %.0f bytes", size, fresh, again, bytes)
	if again > 0.5 {
		t.Errorf("reparsing an unchanged module allocates %.2f times per node, want at most 0.5", again)
	}
	if bytes > 120 {
		t.Errorf("reparsing an unchanged module allocates %.0f bytes per node, want at most 120", bytes)
	}
}

// TestReparseKeepsIndexAfterError checks that a failed parse leaves the
// kept parse alone: the next good version still reuses it.
func TestReparseKeepsIndexAfterError(t *testing.T) {
	src, size := largeModule(t)
	for _, broken := range []string{
		src + "def broken(:\n    pass\n", // fails after reusing every statement
		"x = (\n" + src,                  // fails at once
		src + "x = $\n",                  // fails to lex
	} {
		f, seen := pylang.NewFactory(), newReturned()
		reparse(t, "good", f, seen, src)
		if _, err := pylang.Parse(broken, f); err == nil {
			t.Fatalf("broken version parsed:\n%s", broken[len(broken)-40:])
		}
		var got *tree.Node
		n, _ := allocated(func() { got, _ = pylang.Parse(src, f) })
		want, _, _ := pylang.ParseNew(src)
		sameTree(t, "good again", got, want)
		seen.add(t, "good again", got)
		if perNode := float64(n) / float64(size); perNode > 0.5 {
			t.Errorf("after a failed parse, reparsing allocates %.2f times per node, want at most 0.5: the index was lost", perNode)
		}
	}
}

// FuzzReparse parses a, then b, through one factory: the reparse of b
// must fail exactly as a fresh parse of b does, or equal it with no node
// and no URI twice and every URI naming the node it named in a's tree.
// When both parse, a's tree is diffed against b's reparse, which shares
// nodes with it, and against a fresh parse of b, which does not: the two
// scripts must agree edit for edit and patch a's tree into b.
func FuzzReparse(f *testing.F) {
	for _, c := range reparseCases {
		f.Add(c.old, c.new)
	}
	f.Add("x = 1\n", "x = (\n")
	f.Add("if a:\n    pass\n", "if a:\n  pass\n    x\n")
	// Lines whose indentation the lexer does not measure: after a
	// backslash line, and after a lone CR.
	f.Add("\\\n    if a:\n        pass\nx = 1\n", "class C:\n    if a:\n        pass\n    y = 2\n")
	f.Add("x = 1\n\\\ny = 2\n", "x = 1\n\\\n\nz = 3\n")
	f.Add("x = 1\n\ry = 2\n", "if a:\n    x = 1\n\ry = 2\n")
	f.Fuzz(func(t *testing.T, a, b string) {
		fac, seen := pylang.NewFactory(), newReturned()
		prev, prevErr := pylang.Parse(a, fac)
		if prevErr == nil {
			seen.add(t, "a", prev)
		}
		got, err := pylang.Parse(b, fac)
		want, _, wantErr := pylang.ParseNew(b)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("reparse error %v, fresh parse error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameTree(t, "b", got, want)
		seen.add(t, "b", got)
		if prevErr != nil {
			return
		}
		d := truediff.New(fac.Schema())
		shared, err := d.Diff(prev, got, nil)
		if err != nil {
			t.Fatalf("diff against the reparse: %v", err)
		}
		disjoint, err := d.Diff(prev, want, nil)
		if err != nil {
			t.Fatalf("diff against the fresh parse: %v", err)
		}
		if !truechange.EqualEdits(shared.Script.Edits, disjoint.Script.Edits) {
			t.Fatalf("scripts differ:\nshared   %v\ndisjoint %v", shared.Script.Edits, disjoint.Script.Edits)
		}
		if err := truechange.WellTyped(fac.Schema(), shared.Script); err != nil {
			t.Fatalf("script is ill-typed: %v", err)
		}
		if msg := tree.Mismatch(shared.Patched, disjoint.Patched); msg != "" {
			t.Fatalf("patched trees differ: %s", msg)
		}
		if !tree.Equal(shared.Patched, want) {
			t.Fatalf("patched tree differs from b")
		}
	})
}
