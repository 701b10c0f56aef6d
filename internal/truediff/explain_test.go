package truediff

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

// checkAligned asserts the explanation annotates the script index by index
// with populated records.
func checkAligned(t *testing.T, ex *Explanation, script *truechange.Script) {
	t.Helper()
	if ex == nil {
		t.Fatal("no explanation delivered")
	}
	if len(ex.Edits) != script.Len() {
		t.Fatalf("explanation has %d records for %d edits", len(ex.Edits), script.Len())
	}
	for i, p := range ex.Edits {
		if p.Index != i {
			t.Fatalf("record %d carries index %d", i, p.Index)
		}
		if p.Op == "" || p.Node == "" || p.Reason == "" {
			t.Fatalf("record %d not populated: %+v", i, p)
		}
		if want := opName(script.Edits[i]); p.Op != want {
			t.Fatalf("record %d op = %q, edit is %q", i, p.Op, want)
		}
		if want := editNode(script.Edits[i]).String(); p.Node != want {
			t.Fatalf("record %d node = %q, edit says %q", i, p.Node, want)
		}
	}
}

// diffExplained runs d over the pair with col on the context, the route
// provenance leaves a diff by.
func diffExplained(d *Differ, src, dst *tree.Node, alloc *uri.Allocator, col *ExplainCollector) (*Result, error) {
	return d.DiffScratch(ContextWithExplain(context.Background(), col), src, dst, alloc, NewScratch())
}

func TestExplainAlignsWithScript(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Equiv: ExactOnly},
		{Equiv: StructuralNoPreference},
		{Order: FIFO},
		{UpdateOnLitMismatch: true},
	} {
		t.Run(fmt.Sprintf("equiv=%d,order=%d,upd=%v", opts.Equiv, opts.Order, opts.UpdateOnLitMismatch), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				g := exp.NewGen(seed)
				src := g.Tree(80)
				dst := g.MutateN(src, 5)
				col := &ExplainCollector{}
				d := NewWithOptions(g.Schema(), opts)
				res, err := diffExplained(d, src, dst, g.Alloc(), col)
				if err != nil {
					t.Fatal(err)
				}
				checkAligned(t, col.Last, res.Script)
			}
		})
	}
}

func TestExplainPaperIntroExample(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Add,
		b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b")),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Var, "d")))
	dst := b.MustN(exp.Add,
		b.MustN(exp.Var, "d"),
		b.MustN(exp.Mul, b.MustN(exp.Var, "c"), b.MustN(exp.Sub, b.MustN(exp.Var, "a"), b.MustN(exp.Var, "b"))))

	col := &ExplainCollector{}
	res, err := diffExplained(New(b.Schema()), src, dst, b.Alloc(), col)
	if err != nil {
		t.Fatal(err)
	}
	checkAligned(t, col.Last, res.Script)
	// The minimal script moves Sub#3 and Var#5: both detaches are forced
	// by the source subtree being claimed as a candidate elsewhere, both
	// attaches place selected (exact, hence preferred) candidates.
	for _, p := range col.Last.Edits[:2] {
		if p.Op != "detach" || p.Reason != ReasonSourceClaimed {
			t.Fatalf("detach provenance = %+v, want reason %s", p, ReasonSourceClaimed)
		}
	}
	for _, p := range col.Last.Edits[2:] {
		if p.Op != "attach" || p.Reason != ReasonMove {
			t.Fatalf("attach provenance = %+v, want reason %s", p, ReasonMove)
		}
		if !p.Preferred || p.Considered < 1 || p.CandidateKey == "" {
			t.Fatalf("attach provenance missing selection detail: %+v", p)
		}
	}
	if col.Last.Selected != 2 || col.Last.PreferredWins != 2 {
		t.Fatalf("selection summary = %+v, want 2 selected, 2 preferred", col.Last)
	}
	if col.Last.Preemptive < 1 {
		t.Fatalf("the shared Var c pair should be preemptively assigned: %+v", col.Last)
	}
}

func TestExplainDoesNotPerturbScript(t *testing.T) {
	g := exp.NewGen(21)
	src := g.Tree(120)
	dst := g.MutateN(src, 6)
	base := g.Alloc().Peek()
	mkAlloc := func() *uri.Allocator {
		a := uri.NewAllocator()
		a.Reserve(base)
		return a
	}
	plain := New(g.Schema())
	resPlain, err := plain.Diff(src, dst, mkAlloc())
	if err != nil {
		t.Fatal(err)
	}
	resExpl, err := diffExplained(plain, src, dst, mkAlloc(), &ExplainCollector{})
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Script.String() != resExpl.Script.String() {
		t.Fatal("enabling Explain changed the emitted script")
	}
}

func TestExplainDeterministicAcrossRuns(t *testing.T) {
	g := exp.NewGen(33)
	src := g.Tree(100)
	dst := g.MutateN(src, 5)
	d := New(g.Schema())
	base := g.Alloc().Peek()
	var first []byte
	for i := 0; i < 3; i++ {
		// A fresh allocator with the same base per run keeps load URIs —
		// and hence provenance node references — reproducible.
		alloc := uri.NewAllocator()
		alloc.Reserve(base)
		col := &ExplainCollector{}
		if _, err := diffExplained(d, src, dst, alloc, col); err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(col.Last)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf
		} else if string(first) != string(buf) {
			t.Fatalf("run %d produced different provenance:\n%s\nvs\n%s", i, first, buf)
		}
	}
}

func TestExplainUnloadReasons(t *testing.T) {
	// Replace a subtree wholesale: the discarded nodes must carry a
	// no-demand or lost-race classification, never an empty reason.
	g := exp.NewGen(17)
	src := g.Tree(60)
	dst := g.MutateN(src, 8)
	col := &ExplainCollector{}
	res, err := diffExplained(New(g.Schema()), src, dst, g.Alloc(), col)
	if err != nil {
		t.Fatal(err)
	}
	checkAligned(t, col.Last, res.Script)
	for _, p := range col.Last.Edits {
		if p.Op == "unload" && p.Reason != ReasonNoDemand && p.Reason != ReasonLostRace {
			t.Fatalf("unload record has reason %s: %+v", p.Reason, p)
		}
		if p.Op == "load" && p.Reason != ReasonNoCandidate {
			t.Fatalf("load record has reason %s: %+v", p.Reason, p)
		}
	}
}

// Under ExactOnly a class is a structure digest plus a literal digest, so
// classes that differ only in literals must print different keys; the Num
// leaves here are four such classes.
func TestExplainExactKeysDistinguishLiterals(t *testing.T) {
	b := exp.NewBuilder()
	src := b.MustN(exp.Sub, b.MustN(exp.Num, 1), b.MustN(exp.Num, 2))
	dst := b.MustN(exp.Add, b.MustN(exp.Num, 3), b.MustN(exp.Num, 4))
	col := &ExplainCollector{}
	res, err := diffExplained(NewWithOptions(b.Schema(), Options{Equiv: ExactOnly}), src, dst, b.Alloc(), col)
	if err != nil {
		t.Fatal(err)
	}
	checkAligned(t, col.Last, res.Script)
	keys := map[string]string{}
	for _, p := range col.Last.Edits {
		if (p.Op != "load" && p.Op != "unload") || !strings.HasPrefix(p.Node, string(exp.Num)) {
			continue
		}
		if p.CandidateKey == "" {
			t.Fatalf("%s carries no candidate key", p)
		}
		if other, dup := keys[p.CandidateKey]; dup {
			t.Fatalf("%s and %s print the same class %s", other, p.Node, p.CandidateKey)
		}
		keys[p.CandidateKey] = p.Node
	}
	if len(keys) != 4 {
		t.Fatalf("got %d Num load/unload records, want 4: %v", len(keys), keys)
	}
}
