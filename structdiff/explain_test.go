package structdiff_test

import (
	"context"
	"testing"

	"repro/structdiff"
)

func TestExplainFacade(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	ex, err := structdiff.Explain(src, dst,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Provenance == nil || len(ex.Provenance.Edits) != ex.Script.Len() {
		t.Fatalf("provenance misaligned: %v records for %d edits", ex.Provenance, ex.Script.Len())
	}
	for i, p := range ex.Provenance.Edits {
		if p.Op == "" || p.Reason == "" || p.Node == "" {
			t.Fatalf("record %d not populated: %+v", i, p)
		}
	}
	// The explained diff emits exactly the script a plain diff emits.
	src2, dst2, sch2, alloc2 := buildPair(t)
	plain, err := structdiff.Diff(src2, dst2, structdiff.WithSchema(sch2), structdiff.WithAllocator(alloc2))
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if plain.Script.String() != ex.Script.String() {
		t.Fatal("Explain changed the emitted script")
	}
}

func TestExplainFacadeRequiresSchema(t *testing.T) {
	src, dst, _, _ := buildPair(t)
	if _, err := structdiff.Explain(src, dst); err == nil {
		t.Fatal("Explain without a schema must fail")
	}
}

func TestEngineExplainOptions(t *testing.T) {
	src, dst, sch, alloc := buildPair(t)
	e, err := structdiff.NewEngine(sch, structdiff.WithExplain())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	results, err := e.DiffBatch(context.Background(), []structdiff.Pair{
		{Source: src, Target: dst, Alloc: alloc, Label: "facade"},
	})
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	pr := results[0]
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	if pr.Explain == nil || len(pr.Explain.Edits) != pr.Result.Script.Len() {
		t.Fatalf("engine result lacks aligned provenance: %+v", pr.Explain)
	}
}
