package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/diffserve"
	"repro/internal/engine"
	"repro/internal/mtree"
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
	"repro/structdiff"
)

// rootSpan brackets one change in a traced segment; the change's layer
// spans are its descendants and share its trace.
const rootSpan = "pipebench.change"

// requestTimeout bounds every service call and shutdown, so a stuck server
// fails the run instead of hanging it.
const requestTimeout = 30 * time.Second

// bench is one run of one workload: its inputs, the state the workload
// keeps between changes, and the span sink of a traced segment. With a nil
// sink every span call below is a no-op.
type bench struct {
	cfg  config
	seed int64
	sch  *sig.Schema
	in   *inputs
	sink telemetry.SpanSink

	eng   *engine.Engine // replay's long-lived engine
	files []*replayFile  // replay's per-file state in the current pass
	svc   *svcPass       // service's server and clients in the current pass
	ready bool           // the current pass has not run a change yet
}

// sample is one change's measured outcome.
type sample struct {
	lat                time.Duration // the timed pipeline; for service the Client.Diff call
	nodes              int           // source plus target nodes
	allocs, allocBytes uint64        // heap allocations of the timed pipeline (one-caller workloads)
	stats              truechange.Stats
}

// setup is what setup_s times: generate and render the inputs, prepare a
// pass (for service: start a diffd and warm its clients up), run the
// first changes to warm the process up, and prepare the pass the
// measurement starts from.
func (b *bench) setup() error {
	b.in = generate(b.cfg, b.seed)
	if b.cfg.kind == replay {
		b.eng = engine.New(b.sch, engine.Config{})
	}
	if err := b.newPass(); err != nil {
		return err
	}
	for i := 0; i < min(b.cfg.warmup, len(b.in.changes)); i++ {
		if _, err := b.step(i); err != nil {
			return fmt.Errorf("warm-up change %d: %w", i, err)
		}
	}
	if err := b.newPass(); err != nil {
		return err
	}
	b.ready = true
	return nil
}

// newPass resets the state a pass over the changes starts from.
func (b *bench) newPass() error {
	var err error
	switch b.cfg.kind {
	case replay:
		b.files, err = b.replayFiles()
	case service:
		b.close()
		b.svc, err = b.startService()
	}
	return err
}

// close stops the current service pass, if any.
func (b *bench) close() {
	if b.svc != nil {
		b.svc.stop()
		b.svc = nil
	}
}

// step runs change i of the current pass on the calling goroutine.
func (b *bench) step(i int) (sample, error) {
	c := b.in.changes[i]
	switch b.cfg.kind {
	case freshPairs:
		return b.freshChange(c)
	case replay:
		return b.replayChange(b.eng, b.files[c.file], b.in.versions[c.file][c.version])
	default:
		return b.serviceChange(b.svc.clients[owner(c.file)], c)
	}
}

// child opens a span named name under parent on the traced segment's
// sink. Untraced it returns nil, on which every Span method is a no-op.
func (b *bench) child(parent *telemetry.Span, name string) *telemetry.Span {
	if b.sink == nil {
		return nil
	}
	return telemetry.StartSpan(b.sink, parent.Context(), name)
}

// end closes a span, recording the units of work it covered.
func end(sp *telemetry.Span, unit string, n int) {
	if sp == nil {
		return
	}
	sp.SetAttr(unit, n)
	sp.End()
}

// timed runs one change's pipeline under a root span, timing it and
// counting its heap allocations. The output checks run afterwards,
// outside the timed interval.
func (b *bench) timed(pipeline func(root *telemetry.Span) error) (sample, error) {
	o0, b0 := heapCounters()
	start := time.Now()
	root := b.child(nil, rootSpan)
	err := pipeline(root)
	lat := time.Since(start)
	root.End()
	o1, b1 := heapCounters()
	return sample{lat: lat, allocs: o1 - o0, allocBytes: b1 - b0}, err
}

func (b *bench) parse(root *telemetry.Span, text string, f *pylang.Factory) (*tree.Node, error) {
	sp := b.child(root, "pylang.Parse")
	t, err := pylang.Parse(text, f)
	if err != nil {
		sp.End()
		return nil, err
	}
	end(sp, "nodes", t.Size())
	return t, nil
}

// phases returns the context a diff runs under: in a traced segment it
// carries a tracer that records truediff's own phase timings as child
// spans of sp.
func (b *bench) phases(sp *telemetry.Span) context.Context {
	ctx := context.Background()
	if sp == nil {
		return ctx
	}
	return telemetry.ContextWithTracer(ctx, telemetry.PhaseSpans(b.sink, sp.Context()))
}

// codec passes the script through the wire codec both ways, as a diff
// crossing a process boundary does.
func (b *bench) codec(root *telemetry.Span, s *truechange.Script) (*truechange.Script, error) {
	sp := b.child(root, "diffserve.EncodeScript")
	ws, err := diffserve.EncodeScript(s)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("bytes", len(ws.Edits))
	end(sp, "edits", len(s.Edits))
	sp = b.child(root, "WireScript.Decode")
	out, err := ws.Decode()
	end(sp, "edits", len(s.Edits))
	if err != nil {
		return nil, err
	}
	b.dropLast(out)
	return out, nil
}

// dropLast deletes the script's last edit when the dropEdit fault is armed.
func (b *bench) dropLast(s *truechange.Script) {
	if b.cfg.dropEdit && len(s.Edits) > 0 {
		s.Edits = s.Edits[:len(s.Edits)-1]
	}
}

// check verifies a change's outputs, outside the timed interval: the
// decoded script is well typed and the patched tree equals the target.
func (b *bench) check(smp sample, sch *sig.Schema, script *truechange.Script, patched, target *tree.Node) (sample, error) {
	if err := truechange.WellTyped(sch, script); err != nil {
		return smp, err
	}
	if !tree.Equal(patched, target) {
		return smp, errors.New("patched tree differs from the target")
	}
	smp.stats = truechange.ComputeStats(script)
	return smp, nil
}

// freshChange is one stateless diff, as a command-line or code-review tool
// makes it: parse both versions with a fresh factory, diff through the
// facade, pass the script through the wire codec, and patch a copy of the
// source.
func (b *bench) freshChange(c change) (sample, error) {
	before, after := b.in.texts(c)
	var (
		sch               *sig.Schema
		src, dst, patched *tree.Node
		script            *truechange.Script
	)
	smp, err := b.timed(func(root *telemetry.Span) error {
		f := pylang.NewFactory()
		sch = f.Schema()
		var err error
		if src, err = b.parse(root, before, f); err != nil {
			return err
		}
		if dst, err = b.parse(root, after, f); err != nil {
			return err
		}
		sp := b.child(root, "structdiff.Diff")
		res, err := structdiff.DiffContext(b.phases(sp), src, dst,
			structdiff.WithSchema(sch), structdiff.WithAllocator(f.Alloc()))
		end(sp, "nodes", src.Size()+dst.Size())
		if err != nil {
			return err
		}
		if script, err = b.codec(root, res.Script); err != nil {
			return err
		}
		patched, err = b.patch(root, sch, src, script)
		return err
	})
	if err != nil {
		return smp, err
	}
	smp.nodes = src.Size() + dst.Size()
	return b.check(smp, sch, script, patched, dst)
}

// patch applies the script to a copy of src. Untraced it is one
// structdiff.Patch call; traced, it takes the same steps — whole-tree
// conversion in, the script, conversion back out — one span each.
func (b *bench) patch(root *telemetry.Span, sch *sig.Schema, src *tree.Node, s *truechange.Script) (*tree.Node, error) {
	if b.sink == nil {
		return structdiff.Patch(src, s, structdiff.WithSchema(sch))
	}
	sp := b.child(root, "mtree.FromTree")
	mt, err := mtree.FromTree(sch, src)
	end(sp, "nodes", src.Size())
	if err != nil {
		return nil, err
	}
	sp = b.child(root, "MTree.Patch")
	err = mt.Patch(s)
	end(sp, "edits", len(s.Edits))
	if err != nil {
		return nil, err
	}
	alloc := uri.NewAllocator()
	tree.Walk(src, func(n *tree.Node) { alloc.Reserve(n.URI) })
	sp = b.child(root, "MTree.ToTree")
	t, err := mt.ToTree(alloc)
	if err != nil {
		sp.End()
		return nil, err
	}
	end(sp, "nodes", t.Size())
	return t, nil
}

// replayFile is one file of the incremental consumer: the patched tree of
// its last diff (the next diff's source), the mutable tree patched in step
// with it, and the URI space both live in.
type replayFile struct {
	alloc *uri.Allocator
	f     *pylang.Factory
	kept  *tree.Node
	mt    *mtree.MTree
}

// replayFiles parses every file's first version, each into a URI space of
// its own.
func (b *bench) replayFiles() ([]*replayFile, error) {
	files := make([]*replayFile, len(b.in.versions))
	for i, vs := range b.in.versions {
		rf := &replayFile{alloc: uri.NewAllocator()}
		rf.f = pylang.NewFactoryWith(b.sch, rf.alloc)
		t, err := pylang.Parse(vs[0], rf.f)
		if err != nil {
			return nil, err
		}
		if err := rf.restart(b.sch, t); err != nil {
			return nil, err
		}
		files[i] = rf
	}
	return files, nil
}

// restart makes t the file's kept tree and rebuilds the mutable tree from
// it.
func (rf *replayFile) restart(sch *sig.Schema, t *tree.Node) error {
	mt, err := mtree.FromTree(sch, t)
	if err != nil {
		return err
	}
	rf.kept, rf.mt = t, mt
	return nil
}

// replayChange is one step of an incremental consumer, like an editor or
// the paper's IncA analysis: parse only the new version, diff it against the
// kept tree on the long-lived engine, pass the script through the wire
// codec, and patch the long-lived mutable tree in place.
func (b *bench) replayChange(eng *engine.Engine, rf *replayFile, text string) (sample, error) {
	var (
		dst    *tree.Node
		res    *truediff.Result
		script *truechange.Script
	)
	src := rf.kept
	smp, err := b.timed(func(root *telemetry.Span) error {
		var err error
		if dst, err = b.parse(root, text, rf.f); err != nil {
			return err
		}
		sp := b.child(root, "engine.Diff")
		res, err = eng.Diff(b.phases(sp), src, dst, rf.alloc)
		end(sp, "nodes", src.Size()+dst.Size())
		if err != nil {
			return err
		}
		if script, err = b.codec(root, res.Script); err != nil {
			return err
		}
		sp = b.child(root, "structdiff.PatchAtomic")
		err = structdiff.PatchAtomic(rf.mt, script)
		end(sp, "edits", len(script.Edits))
		return err
	})
	if err == nil {
		smp.nodes = src.Size() + dst.Size()
		smp, err = b.check(smp, b.sch, script, res.Patched, dst)
	}
	if err == nil && !rf.mt.EqualTree(dst) {
		err = errors.New("patched mutable tree differs from the target")
	}
	if err == nil {
		rf.kept = res.Patched
		return smp, nil
	}
	if dst != nil {
		// Restart the file from the target, so one failure does not fail
		// every later change of the file too.
		err = errors.Join(err, rf.restart(b.sch, dst))
	}
	return smp, err
}

// svcPass is one pass of the service workload: a fresh diffd serving
// pylang on a loopback listener with two engine workers, and two
// closed-loop clients that split the files between them.
type svcPass struct {
	srv     *diffserve.Server
	hs      *http.Server
	served  chan struct{} // closed once hs.Serve has returned
	clients [2]*svcClient
	bytes   *byteCounter // traced passes only
}

// svcClient is one closed-loop caller with its own connections and ref
// cache, and the source of each of its files' next diff: a tree the server
// has interned, so it travels as a ref.
type svcClient struct {
	c    *diffserve.Client
	f    *pylang.Factory
	kept map[int]*tree.Node
}

// owner assigns files to the two clients in the order 0, 1, 1, 0, ...,
// which splits the evenly spread file sizes evenly between them.
func owner(file int) int { return [4]int{0, 1, 1, 0}[file%4] }

// startService starts a diffd on loopback and its two clients, and warms
// them up: each client diffs every one of its files' first version against
// itself, so the server interns it and the client learns its ref.
func (b *bench) startService() (*svcPass, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := diffserve.Config{Langs: []string{"pylang"}, Workers: 2}
	if b.sink != nil {
		cfg.Spans = b.sink
	}
	srv, err := diffserve.NewServer(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	p := &svcPass{srv: srv, served: make(chan struct{})}
	var handler http.Handler = srv
	if b.sink != nil {
		handler = serverSpans{next: srv, sink: b.sink}
		p.bytes = &byteCounter{}
	}
	p.hs = &http.Server{Handler: handler}
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	base := "http://" + ln.Addr().String()
	for i := range p.clients {
		var opts []diffserve.ClientOption
		if p.bytes != nil {
			tr := countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), n: p.bytes}
			opts = append(opts, diffserve.WithHTTPClient(&http.Client{Transport: tr}))
		}
		p.clients[i] = &svcClient{
			c:    diffserve.NewClient(base, "pylang", b.sch, opts...),
			f:    pylang.NewFactoryWith(b.sch, uri.NewAllocator()),
			kept: make(map[int]*tree.Node),
		}
	}
	for f, vs := range b.in.versions {
		cl := p.clients[owner(f)]
		t, err := pylang.Parse(vs[0], cl.f)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			_, err = cl.c.Diff(ctx, t, t, nil)
			cancel()
		}
		if err != nil {
			p.stop()
			return nil, fmt.Errorf("service warm-up: %w", err)
		}
		cl.kept[f] = t
	}
	return p, nil
}

// stop drains the server, shuts its listener down, waits for it to return,
// and closes the clients' idle connections.
func (p *svcPass) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	// Errors here only report an expired drain; the engines are closed and
	// the listener shut either way.
	_ = p.srv.Drain(ctx)
	_ = p.hs.Shutdown(ctx)
	<-p.served
	for _, cl := range p.clients {
		_ = cl.c.Close() // only releases idle connections; cannot fail
	}
}

// serviceChange is one closed-loop request: parse the file's next version
// (the client's think time), then diff it against the kept source through
// the service. Only the Client.Diff call is timed.
func (b *bench) serviceChange(cl *svcClient, c change) (sample, error) {
	root := b.child(nil, rootSpan)
	dst, err := b.parse(root, b.in.versions[c.file][c.version], cl.f)
	if err != nil {
		root.End()
		return sample{}, err
	}
	src := cl.kept[c.file]
	sp := b.child(root, "diffserve.Client.Diff")
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if sp != nil {
		ctx = telemetry.ContextWithSpanContext(ctx, sp.Context())
	}
	start := time.Now()
	res, err := cl.c.Diff(ctx, src, dst, nil)
	smp := sample{lat: time.Since(start), nodes: src.Size() + dst.Size()}
	end(sp, "nodes", smp.nodes)
	root.End()
	if err == nil {
		b.dropLast(res.Script)
		smp, err = b.check(smp, b.sch, res.Script, res.Patched, dst)
	}
	if err != nil {
		cl.kept[c.file] = dst
		return smp, err
	}
	cl.kept[c.file] = res.Patched
	return smp, nil
}

// serverSpans wraps the service in the benchmark's own span per request,
// parented on the client's span through the traceparent header. It passes
// its own span on as the parent, so the server's request, queue, engine
// and phase spans nest under it.
type serverSpans struct {
	next http.Handler
	sink telemetry.SpanSink
}

func (h serverSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent")) // absent on warm-up calls
	sp := telemetry.StartSpan(h.sink, parent, "diffserve.Server")
	r.Header.Set("traceparent", sp.Context().Traceparent())
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	sp.SetAttr("status", sw.status)
	sp.End()
}

// statusWriter remembers the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// byteCounter tallies the calls a pass's clients make and their body bytes.
type byteCounter struct{ calls, req, resp atomic.Int64 }

func (n *byteCounter) load() (calls, req, resp int64) {
	return n.calls.Load(), n.req.Load(), n.resp.Load()
}

// countingTransport counts the request and response body bytes of every
// call it carries.
type countingTransport struct {
	base *http.Transport
	n    *byteCounter
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.calls.Add(1)
	if r.ContentLength > 0 {
		t.n.req.Add(r.ContentLength)
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{ReadCloser: resp.Body, n: &t.n.resp}
	return resp, nil
}

// CloseIdleConnections lets Client.Close release the transport's
// connections.
func (t countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
