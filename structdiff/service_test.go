package structdiff_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/structdiff"
)

// Compile-time assertions live in service.go; this test proves the two
// DiffService implementations are interchangeable at runtime: the same
// generic routine runs against the in-process engine and the HTTP client
// and produces scripts of equal size. Both treat a nil context as
// context.Background().
func TestDiffServiceImplementations(t *testing.T) {
	src, dst, sch, _ := buildPair(t)

	runThrough := func(t *testing.T, svc structdiff.DiffService) int {
		t.Helper()
		defer svc.Close()
		res, err := svc.Diff(context.Background(), src, dst, nil)
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		pr := svc.DiffPair(context.Background(), structdiff.Pair{Source: src, Target: dst, Label: "svc-test"})
		if pr.Err != nil || pr.Result == nil {
			t.Fatalf("DiffPair: %+v", pr)
		}
		if got, want := pr.Result.Script.EditCount(), res.Script.EditCount(); got != want {
			t.Errorf("DiffPair produced %d edits, Diff %d", got, want)
		}
		if pr.Stats.Edits != pr.Result.Script.EditCount() || pr.Stats.TargetSize != dst.Size() {
			t.Errorf("DiffPair stats %+v do not describe its script of %d edits and target of %d nodes",
				pr.Stats, pr.Result.Script.EditCount(), dst.Size())
		}
		if _, err := svc.Diff(nil, src, dst, nil); err != nil { //nolint:staticcheck // nil ctx tolerance is part of the contract
			t.Errorf("Diff with nil ctx: %v", err)
		}
		if pr := svc.DiffPair(nil, structdiff.Pair{Source: src, Target: dst}); pr.Err != nil { //nolint:staticcheck // nil ctx tolerance is part of the contract
			t.Errorf("DiffPair with nil ctx: %v", pr.Err)
		}
		if s := svc.Snapshot(); s.Diffs != 4 {
			t.Errorf("snapshot shows %d diffs after four calls, want 4", s.Diffs)
		}
		return res.Script.EditCount()
	}

	var viaEngine, viaService int
	t.Run("engine", func(t *testing.T) {
		eng, err := structdiff.NewEngine(sch)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		viaEngine = runThrough(t, eng)
	})
	t.Run("client", func(t *testing.T) {
		srv, err := structdiff.NewServiceServer(structdiff.ServiceConfig{Langs: []string{"exp"}, Workers: 2})
		if err != nil {
			t.Fatalf("NewServiceServer: %v", err)
		}
		hs := httptest.NewServer(srv)
		defer hs.Close()
		defer srv.Drain(context.Background())
		viaService = runThrough(t, structdiff.NewServiceClient(hs.URL, "exp", sch))
	})
	if viaEngine != viaService {
		t.Errorf("engine produced %d edits, service %d", viaEngine, viaService)
	}
}
