package diffserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/derrors"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/jsonlang"
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, hs
}

func genPair(seed int64, size int) (*tree.Node, *tree.Node) {
	g := exp.NewGen(seed)
	before := g.Tree(size)
	after := g.MutateN(before, 3)
	return before, after
}

func TestDiffRoundTrip(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	src, dst := genPair(1, 80)
	res, err := c.Diff(context.Background(), src, dst, uri.NewAllocator())
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if res.Script == nil {
		t.Fatal("no script in result")
	}
	if res.Patched == nil {
		t.Fatal("no patched tree in result")
	}
	// The patched tree must be content-identical to the target; URIs are
	// server-assigned and differ, but content digests ignore them.
	if res.Patched.ExactHash() != dst.ExactHash() {
		t.Error("patched tree differs from target")
	}

	// Reference: the same pair diffed in-process produces the same number
	// of edits (the service adds transport, not algorithm).
	eng := engine.New(exp.Schema(), engine.Config{Workers: 1})
	defer eng.Close()
	local, err := eng.Diff(context.Background(), eng.Ingest(src, nil), eng.Ingest(dst, nil), nil)
	if err != nil {
		t.Fatalf("local Diff: %v", err)
	}
	if got, want := res.Script.EditCount(), local.Script.EditCount(); got != want {
		t.Errorf("service produced %d edits, local engine %d", got, want)
	}
}

// TestSpecialFloatLiteralsOverTheWire: a script that updates a number
// to −0, NaN or +Inf reaches the client with the literal bits an
// in-process diff emits.
func TestSpecialFloatLiteralsOverTheWire(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"jsonlang"}, Workers: 1})
	c := NewClient(hs.URL, "jsonlang", jsonlang.Schema())
	defer c.Close()
	eng := engine.New(jsonlang.Schema(), engine.Config{Workers: 1})
	defer eng.Close()

	codec := jsonlang.NewCodec()
	parse := func(doc string) *tree.Node {
		n, err := codec.Parse(doc)
		if err != nil {
			t.Fatalf("parse %s: %v", doc, err)
		}
		return n
	}
	// number builds the document {"a": v} for values JSON text cannot hold.
	number := func(v float64) *tree.Node {
		sch, alloc := codec.Schema(), codec.Alloc()
		mk := func(tag sig.Tag, kids []*tree.Node, lits []any) *tree.Node {
			n, err := tree.New(sch, alloc, tag, kids, lits)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		num := mk(jsonlang.TagNumber, nil, []any{v})
		member := mk(jsonlang.TagMember, []*tree.Node{num}, []any{"a"})
		members := mk(jsonlang.TagMemCons, []*tree.Node{member, mk(jsonlang.TagMemNil, nil, nil)}, nil)
		return mk(jsonlang.TagObject, []*tree.Node{members}, nil)
	}
	floatBits := func(s *truechange.Script) []uint64 {
		var out []uint64
		for _, e := range s.Edits {
			var lits []truechange.LitArg
			switch ed := e.(type) {
			case truechange.Load:
				lits = ed.Lits
			case truechange.Unload:
				lits = ed.Lits
			case truechange.Update:
				lits = append(append(lits, ed.Old...), ed.New...)
			}
			for _, l := range lits {
				if f, ok := l.Value.(float64); ok {
					out = append(out, math.Float64bits(f))
				}
			}
		}
		return out
	}

	src := parse(`{"a":1.5}`)
	for name, dst := range map[string]*tree.Node{
		"-0":   parse(`{"a":-0.0}`),
		"NaN":  number(math.NaN()),
		"+Inf": number(math.Inf(1)),
	} {
		res, err := c.Diff(context.Background(), src, dst, nil)
		if err != nil {
			t.Errorf("%s: Diff: %v", name, err)
			continue
		}
		local, err := eng.Diff(context.Background(), src, dst, codec.Alloc())
		if err != nil {
			t.Fatalf("%s: local Diff: %v", name, err)
		}
		got, want := floatBits(res.Script), floatBits(local.Script)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: float literal bits over the wire %x, in process %x", name, got, want)
		}
	}
}

func TestRefReuseAndRecovery(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	src, dst := genPair(2, 60)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("first Diff: %v", err)
	}
	// The client learned both refs; the same trees now travel as refs and
	// resolve from the server's ref table instead of being decoded again.
	in := c.treeInput(src, false)
	if in.Ref == "" || in.SExpr != "" {
		t.Fatalf("after first diff, source should be sent by ref, got %+v", in)
	}
	before := srv.refTrees()
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("ref Diff: %v", err)
	}
	if got := srv.refTrees(); got != before {
		t.Errorf("ref-only diff grew the ref table from %d to %d trees", before, got)
	}

	// A client whose refs the server never saw (fresh server = restart)
	// must recover transparently: unknown_ref answer, one retry with the
	// full S-expressions.
	_, hs2 := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	c2 := NewClient(hs2.URL, "exp", exp.Schema())
	defer c2.Close()
	c2.learnRefs(hexRef(src), hexRef(dst)) // poison: refs from the old server
	if _, err := c2.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff after server restart: %v", err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	pairs := make([]engine.Pair, 4)
	for i := range pairs {
		src, dst := genPair(int64(10+i), 50)
		pairs[i] = engine.Pair{Source: src, Target: dst, Label: fmt.Sprintf("pair-%d", i)}
	}
	results, err := c.DiffBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("DiffBatch: %v", err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(results), len(pairs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("pair %d: %v", i, r.Err)
			continue
		}
		if r.Result.Patched.ExactHash() != pairs[i].Target.ExactHash() {
			t.Errorf("pair %d: patched tree differs from target", i)
		}
		if r.Stats.Edits != r.Result.Script.EditCount() {
			t.Errorf("pair %d: stats report %d edits, script has %d", i, r.Stats.Edits, r.Result.Script.EditCount())
		}
	}
}

// TestOneSchemaPerLanguage: each language has one shared schema, which the
// service and every factory, builder and codec use, so a tree built by any
// of them passes the differ's O(1) schema check under any other.
func TestOneSchemaPerLanguage(t *testing.T) {
	for _, c := range []struct {
		name   string
		schema func() *sig.Schema
		built  *sig.Schema
	}{
		{"pylang", pylang.Schema, pylang.NewFactory().Schema()},
		{"exp", exp.Schema, exp.NewBuilder().Schema()},
		{"jsonlang", jsonlang.Schema, jsonlang.NewCodec().Schema()},
	} {
		sch := c.schema()
		if c.schema() != sch {
			t.Errorf("%s: two Schema calls return two instances", c.name)
		}
		if SchemaFor(c.name) != sch {
			t.Errorf("%s: SchemaFor returns another instance than Schema", c.name)
		}
		if c.built != sch {
			t.Errorf("%s: the language's factory, builder or codec holds another instance than Schema", c.name)
		}
	}
}

// TestWireVersionTolerance is the decode-tolerance contract: same-major
// envelopes (any minor) decode, other majors are rejected before any edit
// is parsed — on the script envelope and on the HTTP surface.
func TestWireVersionTolerance(t *testing.T) {
	if err := CheckWireVersion("1.0"); err != nil {
		t.Errorf("1.0: %v", err)
	}
	if err := CheckWireVersion("1.7"); err != nil {
		t.Errorf("higher minor of same major must be accepted: %v", err)
	}
	for _, v := range []string{"", "2.0", "0.9", "banana", "v1"} {
		if err := CheckWireVersion(v); err == nil {
			t.Errorf("CheckWireVersion(%q): expected rejection", v)
		}
	}

	// A v2 script envelope must fail cleanly even when its edits are not
	// parseable by this build at all.
	w := &WireScript{SchemaVersion: "2.0", Edits: json.RawMessage(`[{"op":"quantum_swap"}]`)}
	if _, err := w.Decode(); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Errorf("v2 script decode: got %v, want schema_version rejection", err)
	}

	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	body, _ := json.Marshal(DiffRequest{
		SchemaVersion: "2.0",
		Lang:          "exp",
		Source:        TreeInput{SExpr: "(Num 1)"},
		Target:        TreeInput{SExpr: "(Num 2)"},
	})
	resp, err := http.Post(hs.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("v2 request: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if er.Error.Kind != ErrKindBadRequest {
		t.Errorf("v2 request: kind %q, want %q", er.Error.Kind, ErrKindBadRequest)
	}
}

// TestPanicSurvival is the tentpole's resilience requirement: a poisoned
// request produces a typed panic response, and the daemon keeps serving.
func TestPanicSurvival(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Panic, Times: 1,
	})
	_, hs := testServer(t, Config{
		Langs: []string{"exp"}, Workers: 1,
		DisableFallback: true, Faults: inj,
	})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	src, dst := genPair(3, 60)
	_, err := c.Diff(context.Background(), src, dst, nil)
	if !errors.Is(err, derrors.ErrDiffPanic) {
		t.Fatalf("poisoned request: err = %v, want ErrDiffPanic", err)
	}
	// The process survived; the next request must succeed.
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("request after panic: %v", err)
	}
}

// TestDeeplyNestedSourceRejected: a well-formed source nested one level
// past tree.MaxSExprDepth is answered 400 bad_request instead of being
// decoded (deep enough input would overflow the decoder's stack and kill
// the daemon), and the server keeps serving.
func TestDeeplyNestedSourceRejected(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	depth := tree.MaxSExprDepth + 1
	body, _ := json.Marshal(DiffRequest{
		SchemaVersion: WireVersion,
		Lang:          "exp",
		Source: TreeInput{SExpr: strings.Repeat(`(Call "f" `, depth-1) + "(Num 1)" +
			strings.Repeat(")", depth-1)},
		Target: TreeInput{SExpr: "(Num 2)"},
	})
	resp, err := http.Post(hs.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nested source: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if er.Error.Kind != ErrKindBadRequest {
		t.Errorf("nested source: kind %q, want %q", er.Error.Kind, ErrKindBadRequest)
	}

	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(4, 60)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("request after the nested one: %v", err)
	}
}

// TestOversizedBodyRejected: a /v1/diff body one byte past maxBody is
// answered 413 with a bad_request wire error and a closed connection, a
// body of exactly maxBody bytes is served, and the server keeps serving.
func TestOversizedBodyRejected(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	req, _ := json.Marshal(DiffRequest{
		SchemaVersion: WireVersion,
		Lang:          "exp",
		Source:        TreeInput{SExpr: "(Num 1)"},
		Target:        TreeInput{SExpr: "(Num 2)"},
	})
	// Leading whitespace keeps the padded body valid JSON, so the size is
	// the only thing wrong with it.
	post := func(size int) *http.Response {
		t.Helper()
		body := append(bytes.Repeat([]byte(" "), size-len(req)), req...)
		resp, err := http.Post(hs.URL+"/v1/diff", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %d bytes: %v", size, err)
		}
		return resp
	}

	resp := post(maxBody + 1)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if er.Error.Kind != ErrKindBadRequest {
		t.Errorf("oversized body: kind %q, want %q", er.Error.Kind, ErrKindBadRequest)
	}
	if !resp.Close {
		t.Error("oversized body: the server kept the connection open")
	}

	atCap := post(maxBody)
	atCap.Body.Close()
	if atCap.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly maxBody bytes: status %d, want 200", atCap.StatusCode)
	}
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(5, 60)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("request after the oversized one: %v", err)
	}
}

// TestFallbackRescuesPanic: with graceful degradation on (the default),
// the same poisoned request succeeds with a root-replacement script.
func TestFallbackRescuesPanic(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Panic, Times: 1,
	})
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, Faults: inj})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	src, dst := genPair(4, 60)
	res, err := c.Diff(context.Background(), src, dst, nil)
	if err != nil {
		t.Fatalf("Diff with fallback: %v", err)
	}
	if res.Patched.ExactHash() != dst.ExactHash() {
		t.Error("fallback script did not reproduce the target")
	}
}

// TestSaturationSheds exercises queue backpressure: with a single worker
// wedged on a slow diff and a queue of one, the next request must be shed
// with 429, a Retry-After header, and a typed saturated error.
func TestSaturationSheds(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 500 * time.Millisecond,
	})
	srv, hs := testServer(t, Config{
		Langs: []string{"exp"}, Workers: 1,
		MaxQueue: 1,
		Faults:   inj,
	})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	src, dst := genPair(5, 60)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
			t.Errorf("slow Diff: %v", err)
		}
	}()
	// Wait until the slow request occupies the queue.
	deadline := time.Now().Add(2 * time.Second)
	for srv.m.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(DiffRequest{
		SchemaVersion: WireVersion, Lang: "exp",
		Source: TreeInput{SExpr: tree.EncodeSExpr(src)},
		Target: TreeInput{SExpr: tree.EncodeSExpr(dst)},
	})
	resp, err := http.Post(hs.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode shed response: %v", err)
	}
	if er.Error.Kind != ErrKindSaturated {
		t.Errorf("shed kind = %q, want %q", er.Error.Kind, ErrKindSaturated)
	}
	if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); er.Error.RetryAfterMS != int64(secs)*1000 {
		t.Errorf("body retry_after_ms = %d, want the Retry-After header's %ds", er.Error.RetryAfterMS, secs)
	}
	if errors.Is(wireErr(er.Error), derrors.ErrServiceUnavailable) == false {
		t.Error("saturated wire error does not map to ErrServiceUnavailable")
	}
	if srv.m.sheds.Load() == 0 {
		t.Error("shed counter did not advance")
	}
	wg.Wait()
}

// TestTenantLimit: one tenant at its concurrency cap is shed while
// another tenant is still admitted.
func TestTenantLimit(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 300 * time.Millisecond,
	})
	srv, hs := testServer(t, Config{
		Langs: []string{"exp"}, Workers: 1, TenantLimit: 1,
		Faults: inj,
	})
	greedy := NewClient(hs.URL, "exp", exp.Schema(), WithTenant("greedy"))
	defer greedy.Close()
	polite := NewClient(hs.URL, "exp", exp.Schema(), WithTenant("polite"))
	defer polite.Close()

	src, dst := genPair(6, 60)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := greedy.Diff(context.Background(), src, dst, nil); err != nil {
			t.Errorf("greedy's first Diff: %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.tenantMu.Lock()
		n := srv.tenants["greedy"]
		srv.tenantMu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("greedy's request never acquired its tenant slot")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := greedy.Diff(context.Background(), src, dst, nil)
	if !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("greedy over limit: err = %v, want ErrServiceUnavailable", err)
	}
	if _, err := polite.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("polite tenant was shed with greedy: %v", err)
	}
	wg.Wait()
}

// TestGracefulDrain is the shutdown contract: requests in flight when the
// drain begins complete normally, requests arriving after it get a clean
// 503, and the engine counters reconcile — every admitted diff is
// accounted for, none leak.
func TestGracefulDrain(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 50 * time.Millisecond,
	})
	srv, hs := testServer(t, Config{
		Langs: []string{"exp"}, Workers: 2,
		Faults: inj,
	})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	const inflight = 4
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			src, dst := genPair(int64(100+i), 60)
			_, err := c.Diff(context.Background(), src, dst, nil)
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.m.pending.Load() < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests became pending", srv.m.pending.Load(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// In-flight requests completed or were answered with the clean
	// draining error — never a connection drop or a hang.
	completed := 0
	for i := 0; i < inflight; i++ {
		if err := <-errs; err == nil {
			completed++
		} else if !errors.Is(err, derrors.ErrServiceUnavailable) {
			t.Errorf("in-flight request failed with %v, want nil or ErrServiceUnavailable", err)
		}
	}

	// New work is refused with a typed draining error.
	src, dst := genPair(200, 40)
	if _, err := c.Diff(context.Background(), src, dst, nil); !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("post-drain Diff: err = %v, want ErrServiceUnavailable", err)
	}

	// Counters reconcile: the engine finished exactly the diffs that were
	// dispatched (completed requests), its queue is empty, nothing is
	// pending, and the drain emptied the ref table.
	s := srv.langs["exp"].eng.Snapshot()
	if s.QueueDepth != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", s.QueueDepth)
	}
	if got := srv.m.pending.Load(); got != 0 {
		t.Errorf("pending gauge after drain = %d, want 0", got)
	}
	if s.Diffs != uint64(completed) {
		t.Errorf("engine completed %d diffs, but %d requests succeeded", s.Diffs, completed)
	}
	if n := srv.refTrees(); n != 0 {
		t.Errorf("ref table holds %d trees after drain, want 0", n)
	}
	if !srv.Draining() {
		t.Error("server does not report draining")
	}

	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestMetricsExposition: the service exposes its own metrics and every
// engine's, language-labelled, in parseable Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp", "jsonlang"}, Workers: 1})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(7, 50)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff: %v", err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"diffserve_requests_total 1",
		"diffserve_sheds_total 0",
		"diffserve_request_duration_seconds_count 1",
		`structdiff_diffs_total{lang="exp"} 1`,
		`structdiff_diffs_total{lang="jsonlang"} 0`,
		`structdiff_engine_queue_depth{lang="exp"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestSnapshotEndpoint: client Snapshot surfaces the server-side engine
// counters for its language.
func TestSnapshotEndpoint(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(8, 50)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	s := c.Snapshot()
	if s.Diffs != 1 {
		t.Errorf("Snapshot.Diffs = %d, want 1", s.Diffs)
	}
	bad := NewClient("http://127.0.0.1:1", "exp", exp.Schema())
	defer bad.Close()
	if s := bad.Snapshot(); s.Diffs != 0 {
		t.Errorf("unreachable server yielded non-zero snapshot: %+v", s)
	}
}

// waitFor polls cond until it holds, failing the test with what after 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchFreeWorker: a request that finds a worker slot free runs at
// once, even while the other slot is wedged on a slow diff.
func TestDispatchFreeWorker(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 2 * time.Second, Times: 1,
	})
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2, Faults: inj})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	wedged := make(chan error, 1)
	go func() {
		src, dst := genPair(300, 50)
		_, err := c.Diff(context.Background(), src, dst, nil)
		wedged <- err
	}()
	waitFor(t, "the first diff is wedged", func() bool { return inj.Fired(engine.FaultSiteDiff) == 1 })

	src, dst := genPair(301, 50)
	start := time.Now()
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("second Diff: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("second Diff took %v with a worker free; want it dispatched at once", d)
	}
	if err := <-wedged; err != nil {
		t.Fatalf("wedged Diff: %v", err)
	}
}

// TestHungUpWaiterNeverRuns: a job whose caller hangs up while it waits
// for a worker slot is abandoned, not diffed later for nobody.
func TestHungUpWaiterNeverRuns(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 500 * time.Millisecond, Times: 1,
	})
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, Faults: inj})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	wedged := make(chan error, 1)
	go func() {
		src, dst := genPair(330, 50)
		_, err := c.Diff(context.Background(), src, dst, nil)
		wedged <- err
	}()
	waitFor(t, "the first diff is wedged", func() bool { return inj.Fired(engine.FaultSiteDiff) == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		src, dst := genPair(331, 50)
		_, err := c.Diff(ctx, src, dst, nil)
		waiter <- err
	}()
	waitFor(t, "the second job waits behind the wedged one", func() bool { return srv.m.pending.Load() == 2 })
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Errorf("hung-up Diff: err = %v, want context.Canceled", err)
	}
	if err := <-wedged; err != nil {
		t.Fatalf("wedged Diff: %v", err)
	}
	waitFor(t, "no job is pending", func() bool { return srv.m.pending.Load() == 0 })
	if n := srv.langs["exp"].eng.Snapshot().Diffs; n != 1 {
		t.Errorf("engine ran %d diffs, want 1 (the hung-up job must not run)", n)
	}
}

// TestBacklogCountsEachJobOnce: admission counts a job once, whether it
// waits for a worker slot or runs. With the one worker wedged on the
// first of a three-pair batch request, a fourth job still fits under a
// MaxQueue of 4.
func TestBacklogCountsEachJobOnce(t *testing.T) {
	inj := faultinject.New(1, faultinject.Fault{
		Site: engine.FaultSiteDiff, Kind: faultinject.Delay, Delay: 500 * time.Millisecond, Times: 1,
	})
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, MaxQueue: 4, Faults: inj})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()

	pairs := make([]engine.Pair, 3)
	for i := range pairs {
		src, dst := genPair(int64(320+i), 20)
		pairs[i] = engine.Pair{Source: src, Target: dst}
	}
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		results, err := c.DiffBatch(context.Background(), pairs)
		if err != nil {
			t.Errorf("DiffBatch: %v", err)
			return
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("pair %d: %v", i, r.Err)
			}
		}
	}()
	waitFor(t, "three jobs are pending behind a wedged diff", func() bool {
		return srv.m.pending.Load() == 3 && inj.Fired(engine.FaultSiteDiff) == 1
	})

	src, dst := genPair(323, 20)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Errorf("fourth job with three admitted and MaxQueue 4: %v", err)
	}
	<-batchDone
}

// TestOversizedBatchRefused: a batch of more pairs than MaxQueue could
// never be admitted, so it is refused with 413 bad_request and no retry
// advice, and a retrying client gives up after its first attempt.
func TestOversizedBatchRefused(t *testing.T) {
	_, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1, MaxQueue: 2})
	pairs := make([]engine.Pair, 3)
	for i := range pairs {
		src, dst := genPair(int64(340+i), 20)
		pairs[i] = engine.Pair{Source: src, Target: dst}
	}

	req := BatchRequest{SchemaVersion: WireVersion, Lang: "exp"}
	for _, p := range pairs {
		req.Pairs = append(req.Pairs, BatchPair{
			Source: TreeInput{SExpr: tree.EncodeSExpr(p.Source)},
			Target: TreeInput{SExpr: tree.EncodeSExpr(p.Target)},
		})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-pair batch with MaxQueue 2: status %d, want 413", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("oversized batch carries Retry-After %q, want none", ra)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error response: %v", err)
	}
	if er.Error.Kind != ErrKindBadRequest {
		t.Errorf("oversized batch: kind %q, want %q", er.Error.Kind, ErrKindBadRequest)
	}

	c := NewClient(hs.URL, "exp", exp.Schema(),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1}))
	defer c.Close()
	if _, err := c.DiffBatch(context.Background(), pairs); wireKind(err) != ErrKindBadRequest {
		t.Errorf("DiffBatch of an oversized batch: err = %v, want kind %q", err, ErrKindBadRequest)
	}
	if n := c.ClientSnapshot().Attempts; n != 1 {
		t.Errorf("retrying client made %d attempts at an oversized batch, want 1", n)
	}
}

// metric reads one of the server's own (unlabelled) metrics.
func metric(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	for _, m := range srv.GatherMetrics() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s is not gathered", name)
	return 0
}

// TestDrainRefusalKeepsAvailability: a request refused by the drain is
// counted once, as a drain reject, and does not spend the SLO's error
// budget.
func TestDrainRefusalKeepsAvailability(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(350, 30)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := c.Diff(context.Background(), src, dst, nil); !errors.Is(err, derrors.ErrServiceUnavailable) {
		t.Fatalf("Diff after Drain: err = %v, want ErrServiceUnavailable", err)
	}
	if a := srv.slo.Snapshot().Availability; a != 1 {
		t.Errorf("availability after one served diff and one drain refusal = %.3f, want 1", a)
	}
	if n := metric(t, srv, "diffserve_drain_rejects_total"); n != 1 {
		t.Errorf("diffserve_drain_rejects_total = %v, want 1", n)
	}
}

// TestDrainReleasesTrees: Drain empties the ref table, so a drained
// server keeps none of the trees it was sent.
func TestDrainReleasesTrees(t *testing.T) {
	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 1})
	c := NewClient(hs.URL, "exp", exp.Schema())
	defer c.Close()
	src, dst := genPair(360, 30)
	if _, err := c.Diff(context.Background(), src, dst, nil); err != nil {
		t.Fatalf("Diff: %v", err)
	}
	held := func() int {
		ls := srv.langs["exp"]
		ls.refMu.RLock()
		defer ls.refMu.RUnlock()
		return len(ls.refs)
	}
	if n := held(); n != 2 {
		t.Fatalf("ref table holds %d trees after one diff, want 2", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := held(); n != 0 {
		t.Errorf("ref table holds %d trees after Drain, want 0", n)
	}
	if g := metric(t, srv, "diffserve_ref_trees"); g != 0 {
		t.Errorf("diffserve_ref_trees after Drain = %v, want 0", g)
	}
}
