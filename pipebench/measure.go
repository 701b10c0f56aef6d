package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/diffserve"
	"repro/internal/engine"
	"repro/internal/pylang"
	"repro/internal/telemetry"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/uri"
	"repro/structdiff"
)

// tally counts the changes a run attempted and those that failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// segment accumulates one measured interval of a workload: back-to-back
// passes over the changes, each from fresh per-pass state.
type segment struct {
	tally
	lat                []time.Duration // latencies of the successful changes
	wall               time.Duration   // timed wall: the changes' summed times, or the service passes' walls
	loop               time.Duration   // traced wall: wall, but for service summed over the clients
	nodes              int64           // source plus target nodes of the successful changes
	allocs, allocBytes uint64

	// The first pass of a full segment, by change index.
	passOK     []bool
	passStats  []truechange.Stats
	retainedMB float64

	// Service: the first pass's request traffic (traced segments only) and
	// the coalesced batches. Engine counters: replay's engine, or the
	// service's.
	requests, reqBytes, respBytes                int64
	batches, batchJobs                           uint64
	poolGets, poolMisses, storeHits, storeMisses uint64
	diffWall, capacity                           time.Duration
}

func newSegment(changes int) *segment {
	return &segment{passOK: make([]bool, changes), passStats: make([]truechange.Stats, changes)}
}

// record adds change i's outcome; first marks a full segment's first pass.
func (s *segment) record(i int, smp sample, err error, first bool) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("change %d: %w", i, err)
		}
		return
	}
	s.lat = append(s.lat, smp.lat)
	s.nodes += int64(smp.nodes)
	s.allocs += smp.allocs
	s.allocBytes += smp.allocBytes
	if first {
		s.passOK[i], s.passStats[i] = true, smp.stats
	}
}

// merge folds one service client's share of a pass into s.
func (s *segment) merge(o *segment) {
	s.tally.add(o.tally)
	s.lat = append(s.lat, o.lat...)
	s.nodes += o.nodes
	s.loop += o.loop
	for i, ok := range o.passOK {
		if ok {
			s.passOK[i], s.passStats[i] = true, o.passStats[i]
		}
	}
}

func (s *segment) addEngine(d engine.Snapshot) {
	s.poolGets += d.PoolGets
	s.poolMisses += d.PoolMisses
	s.storeHits += d.StoreHits
	s.storeMisses += d.StoreMisses
	s.diffWall += d.DiffWall
	s.capacity += d.WorkerCapacity
}

func (s *segment) throughput() float64 { return ratio(float64(len(s.lat)), s.wall.Seconds()) }

// runSegment measures the workload until about budget of timed wall has
// passed. Resetting state between passes is not timed. With full set the
// first pass runs to completion whatever the budget, so that per-pass
// figures — edits per change, retained heap, request bytes, the service's
// differential check — cover the whole input.
func (b *bench) runSegment(budget time.Duration, full bool) (*segment, error) {
	s := newSegment(len(b.in.changes))
	var before engine.Snapshot
	if b.eng != nil {
		before = b.eng.Snapshot()
	}
	for pass := 0; s.wall < budget || pass == 0; pass++ {
		if !b.ready {
			if err := b.newPass(); err != nil {
				return nil, err
			}
		}
		b.ready = false
		first := full && pass == 0
		if b.cfg.kind != service {
			b.inprocPass(s, budget, first)
			continue
		}
		var deadline time.Time
		if !first {
			deadline = time.Now().Add(budget - s.wall)
		}
		b.servicePass(s, deadline, first)
	}
	if b.eng != nil {
		s.addEngine(b.eng.Snapshot().Sub(before))
	}
	return s, nil
}

// inprocPass runs the current pass of a one-caller workload, stopping once
// the segment's timed wall reaches budget (except in a full segment's
// first pass).
func (b *bench) inprocPass(s *segment, budget time.Duration, first bool) {
	for i := range b.in.changes {
		if !first && s.wall >= budget {
			return
		}
		smp, err := b.step(i)
		s.wall += smp.lat
		s.loop += smp.lat
		s.record(i, smp, err, first)
	}
	if first {
		s.retainedMB = liveHeapMB()
	}
}

// servicePass runs both clients over their files' changes concurrently
// until they finish or the deadline, if set, passes.
func (b *bench) servicePass(s *segment, deadline time.Time, first bool) {
	p := b.svc
	before := p.srv.Snapshot()["pylang"]
	jobs0, batches0 := batchHist(p.srv)
	var calls0, req0, resp0 int64
	if p.bytes != nil {
		calls0, req0, resp0 = p.bytes.load()
	}
	o0, b0 := heapCounters()
	start := time.Now()
	runs := [2]*segment{newSegment(len(b.in.changes)), newSegment(len(b.in.changes))}
	var wg sync.WaitGroup
	for ci := range p.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, r := p.clients[ci], runs[ci]
			for i, c := range b.in.changes {
				if owner(c.file) != ci {
					continue
				}
				// Every pass makes progress, however little budget is left.
				if r.attempted > 0 && !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				smp, err := b.serviceChange(cl, c)
				r.record(i, smp, err, first)
			}
			r.loop = time.Since(start)
		}(ci)
	}
	wg.Wait()
	s.wall += time.Since(start)
	o1, b1 := heapCounters()
	s.allocs += o1 - o0
	s.allocBytes += b1 - b0
	for _, r := range runs {
		s.merge(r)
	}
	if first {
		s.retainedMB = liveHeapMB() // the server is still up
		if p.bytes != nil {
			calls1, req1, resp1 := p.bytes.load()
			s.requests, s.reqBytes, s.respBytes = calls1-calls0, req1-req0, resp1-resp0
		}
	}
	s.addEngine(p.srv.Snapshot()["pylang"].Sub(before))
	jobs1, batches1 := batchHist(p.srv)
	s.batchJobs += jobs1 - jobs0
	s.batches += batches1 - batches0
}

// batchHist reads the server's coalesced-batch size histogram: jobs and
// batches so far.
func batchHist(srv *diffserve.Server) (jobs, batches uint64) {
	for _, m := range srv.GatherMetrics() {
		if m.Name == "diffserve_batch_size_jobs" {
			return m.Hist.Sum, m.Hist.Count
		}
	}
	return 0, 0
}

// endToEndRun measures the end-to-end metrics over one full segment; for
// service it then checks the first pass against the in-process path.
func (b *bench) endToEndRun(budget time.Duration, out io.Writer) (map[string]float64, tally, error) {
	s, err := b.runSegment(budget, true)
	if err != nil {
		return nil, tally{}, err
	}
	t := s.tally
	if b.cfg.kind == service {
		bad, err := b.differential(s)
		if err != nil {
			return nil, t, err
		}
		if bad > 0 {
			t.failed += bad
			t.firstErr = errors.Join(t.firstErr,
				fmt.Errorf("%d service scripts differ from the in-process ones in per-kind edit counts", bad))
		}
	}
	var edits, changes int
	for i, ok := range s.passOK {
		if ok {
			edits += s.passStats[i].Compound
			changes++
		}
	}
	n := len(s.lat)
	fmt.Fprintf(out, "latency_tail_ms is p%g of %d samples, %d beyond it\n",
		100*b.cfg.tail, n, n-1-rank(n, b.cfg.tail))
	return map[string]float64{
		"throughput_per_s":     s.throughput(),
		"latency_p50_ms":       ms(quantile(s.lat, 0.5)),
		"latency_tail_ms":      ms(quantile(s.lat, b.cfg.tail)),
		"allocs_per_node":      ratio(float64(s.allocs), float64(s.nodes)),
		"alloc_bytes_per_node": ratio(float64(s.allocBytes), float64(s.nodes)),
		"retained_heap_mb":     s.retainedMB,
		"edits_per_change":     ratio(float64(edits), float64(changes)),
	}, t, nil
}

// differential is the service's check against the in-process path: it
// replays the history through the replay workload's code (untimed, on an
// engine of its own) and counts the first-pass service changes whose
// per-kind edit counts differ from the in-process script's.
func (b *bench) differential(s *segment) (int, error) {
	ref := &bench{cfg: b.cfg, seed: b.seed, sch: b.sch, in: b.in}
	ref.cfg.dropEdit = false
	eng := engine.New(b.sch, engine.Config{})
	defer eng.Close()
	files, err := ref.replayFiles()
	if err != nil {
		return 0, err
	}
	bad := 0
	for i, c := range b.in.changes {
		smp, err := ref.replayChange(eng, files[c.file], b.in.versions[c.file][c.version])
		if err != nil {
			return 0, fmt.Errorf("in-process reference, change %d: %w", i, err)
		}
		if s.passOK[i] && smp.stats != s.passStats[i] {
			bad++
		}
	}
	return bad, nil
}

// baseline accumulates the untraced segments of a traced run.
type baseline struct {
	changes int
	wall    time.Duration
	gc, cpu float64 // CPU seconds spent on GC, and in total
}

func (bl *baseline) measure(b *bench, budget time.Duration, t *tally) error {
	gc0, cpu0 := cpuSeconds()
	s, err := b.runSegment(budget, false)
	if err != nil {
		return err
	}
	gc1, cpu1 := cpuSeconds()
	t.add(s.tally)
	bl.changes += len(s.lat)
	bl.wall += s.wall
	bl.gc += gc1 - gc0
	bl.cpu += cpu1 - cpu0
	return nil
}

func (bl *baseline) throughput() float64 { return ratio(float64(bl.changes), bl.wall.Seconds()) }

// tracedRun measures the per-layer metrics. An untraced baseline gives the
// GC share and the base for the overhead ratios; it runs in two halves,
// first and last, so that drift over the run cancels out of the ratios.
// In the traced segment between them, spans the benchmark records around
// each layer call, plus the spans the service already records through
// Config.Spans, give each layer's self time. Replay also runs once with
// the engine's Explain and once with its Spans setting on. Last, probes
// time the calls the pipeline makes inside other calls.
func (b *bench) tracedRun(budget time.Duration, spanDir string, out io.Writer) (map[string]float64, tally, error) {
	parts := 2
	if b.cfg.kind == replay {
		parts = 4
	}
	share := budget / time.Duration(parts)
	var (
		t    tally
		base baseline
	)
	if err := base.measure(b, share/2, &t); err != nil {
		return nil, t, err
	}

	rec := telemetry.NewSpanRecorder()
	b.sink = rec
	traced, err := b.runSegment(share, true)
	b.sink = nil
	if err != nil {
		return nil, t, err
	}
	t.add(traced.tally)
	spans := rec.Spans()
	vals := attribute(spans, traced, out)
	vals["engine.pool_hit_ratio"] = ratio(float64(traced.poolGets-min(traced.poolMisses, traced.poolGets)), float64(traced.poolGets))
	vals["engine.store_hit_ratio"] = ratio(float64(traced.storeHits), float64(traced.storeHits+traced.storeMisses))
	vals["engine.utilization"] = ratio(float64(traced.diffWall), float64(traced.capacity))
	vals["diffserve.request_bytes_per_change"] = ratio(float64(traced.reqBytes), float64(traced.requests))
	vals["diffserve.response_bytes_per_change"] = ratio(float64(traced.respBytes), float64(traced.requests))
	vals["diffserve.batch_size_mean"] = ratio(float64(traced.batchJobs), float64(traced.batches))

	observed := map[string]float64{}
	if b.cfg.kind == replay {
		for _, o := range []struct {
			metric string
			cfg    engine.Config
		}{
			{"engine.explain_overhead_ratio", engine.Config{Explain: true}},
			{"engine.spans_overhead_ratio", engine.Config{Spans: discardSpans{}}},
		} {
			plain := b.eng
			b.eng = engine.New(b.sch, o.cfg)
			s, err := b.runSegment(share, false)
			b.eng.Close()
			b.eng = plain
			if err != nil {
				return nil, t, err
			}
			t.add(s.tally)
			observed[o.metric] = s.throughput()
		}
	}
	if err := base.measure(b, share/2, &t); err != nil {
		return nil, t, err
	}
	vals["gc.cpu_share"] = ratio(base.gc, base.cpu)
	vals["trace.overhead_ratio"] = ratio(traced.throughput(), base.throughput())
	for metric, tp := range observed {
		vals[metric] = ratio(tp, base.throughput())
	}
	if err := b.probe(vals); err != nil {
		return nil, t, fmt.Errorf("probe: %w", err)
	}
	if err := writeSpans(spanDir, b.cfg.name, b.seed, spans); err != nil {
		fmt.Fprintln(out, "spans not written:", err)
	}
	return vals, t, nil
}

// discardSpans drops every span: what the engine's Spans setting costs
// with no exporter behind it.
type discardSpans struct{}

func (discardSpans) SpanEnd(*telemetry.Span) {}

// layer sums the spans of one name: their wall, their self time (wall
// minus the part their child spans cover), their count, and the units of
// work they recorded.
type layer struct {
	dur, self           time.Duration
	count               int
	nodes, edits, bytes int64
}

// sized is one diff's input size and time.
type sized struct {
	nodes int64
	d     time.Duration
}

// attribute turns a traced segment's spans into per-layer metrics and
// prints each layer's share of the traced wall. Only spans in the trace of
// a measured change count (a service warm-up records spans of its own).
// The layers' self times plus the unattributed remainder add up to the
// traced wall.
func attribute(spans []telemetry.Span, s *segment, out io.Writer) map[string]float64 {
	type key struct {
		trace telemetry.TraceID
		span  telemetry.SpanID
	}
	measured := map[telemetry.TraceID]bool{}
	for i := range spans {
		if spans[i].Name == rootSpan {
			measured[spans[i].Trace] = true
		}
	}
	byID := map[key]*telemetry.Span{}
	covered := map[key]time.Duration{}
	for i := range spans {
		sp := &spans[i]
		if measured[sp.Trace] {
			byID[key{sp.Trace, sp.ID}] = sp
			covered[key{sp.Trace, sp.Parent}] += sp.Duration()
		}
	}
	layers := map[string]*layer{}
	var (
		attributed            time.Duration
		server, client, queue []time.Duration
		sheds                 int
		diffs                 []sized
	)
	for i := range spans {
		sp := &spans[i]
		if !measured[sp.Trace] {
			continue
		}
		d := sp.Duration()
		self := d - covered[key{sp.Trace, sp.ID}]
		l := layers[sp.Name]
		if l == nil {
			l = &layer{}
			layers[sp.Name] = l
		}
		l.dur += d
		l.self += self
		l.count++
		l.nodes += intAttr(sp, "nodes") + intAttr(sp, "source_nodes") + intAttr(sp, "target_nodes")
		l.edits += intAttr(sp, "edits")
		l.bytes += intAttr(sp, "bytes")
		if sp.Name != rootSpan {
			attributed += self
		}
		switch sp.Name {
		case "diffserve.Server":
			server = append(server, d)
			if intAttr(sp, "status") == http.StatusTooManyRequests {
				sheds++
			}
			if c := byID[key{sp.Trace, sp.Parent}]; c != nil {
				client = append(client, c.Duration()-d)
			}
		case "diffserve.queue":
			queue = append(queue, d)
		case "structdiff.Diff":
			diffs = append(diffs, sized{intAttr(sp, "nodes"), d})
		}
	}
	sum := func(names ...string) layer {
		var t layer
		for _, n := range names {
			if l := layers[n]; l != nil {
				t.dur += l.dur
				t.self += l.self
				t.count += l.count
				t.nodes += l.nodes
				t.edits += l.edits
				t.bytes += l.bytes
			}
		}
		return t
	}
	parse := sum("pylang.Parse")
	diff := sum("structdiff.Diff", "engine.Diff", "engine.diff")
	eng := sum("engine.Diff", "engine.diff")
	enc, dec := sum("diffserve.EncodeScript"), sum("WireScript.Decode")
	from, to := sum("mtree.FromTree"), sum("MTree.ToTree")
	patch := sum("MTree.Patch", "structdiff.PatchAtomic")
	vals := map[string]float64{
		"pylang.parse_ns_per_node":      perUnit(parse.dur, parse.nodes),
		"engine.diff_ns_per_node":       perUnit(eng.dur, eng.nodes),
		"engine.self_ns_per_diff":       perUnit(eng.self, int64(eng.count)),
		"truechange.encode_ns_per_edit": perUnit(enc.dur, enc.edits),
		"truechange.decode_ns_per_edit": perUnit(dec.dur, dec.edits),
		"truechange.bytes_per_edit":     ratio(float64(enc.bytes), float64(enc.edits)),
		"mtree.fromtree_ns_per_node":    perUnit(from.dur, from.nodes),
		"mtree.totree_ns_per_node":      perUnit(to.dur, to.nodes),
		"mtree.patch_ns_per_edit":       perUnit(patch.dur, patch.edits),
		"diffserve.server_ms_p50":       ms(quantile(server, 0.5)),
		"diffserve.client_ms_p50":       ms(quantile(client, 0.5)),
		"diffserve.queue_wait_ms_p50":   ms(quantile(queue, 0.5)),
		"diffserve.shed_ratio":          ratio(float64(sheds), float64(len(server))),
		"truediff.size_ratio":           sizeRatio(diffs),
		"trace.unattributed_share":      ratio(float64(s.loop-attributed), float64(s.loop)),
	}
	for _, ph := range []string{"prepare", "shares", "select", "emit"} {
		vals["truediff."+ph+"_ns_per_node"] = perUnit(sum("truediff."+ph).dur, diff.nodes)
	}

	names := make([]string, 0, len(layers))
	for n := range layers {
		if n != rootSpan {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	fmt.Fprintf(out, "traced wall %.1f ms, by layer self time:\n", ms(s.loop))
	for _, n := range names {
		l := layers[n]
		fmt.Fprintf(out, "  %-28s %10.1f ms %6.2f%% %8d spans\n", n, ms(l.self), 100*ratio(float64(l.self), float64(s.loop)), l.count)
	}
	rest := s.loop - attributed
	fmt.Fprintf(out, "  %-28s %10.1f ms %6.2f%%\n", "unattributed", ms(rest), 100*ratio(float64(rest), float64(s.loop)))
	return vals
}

func intAttr(sp *telemetry.Span, key string) int64 {
	for _, a := range sp.Attrs {
		if v, ok := a.Value.(int); ok && a.Key == key {
			return int64(v)
		}
	}
	return 0
}

// sizeRatio is the diff's time per node on the largest quarter of the
// changes over that on the smallest quarter. Linear time (Theorem 4.1)
// predicts about 1.
func sizeRatio(diffs []sized) float64 {
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].nodes < diffs[j].nodes })
	q := len(diffs) / 4
	if q == 0 {
		return 0
	}
	per := func(xs []sized) float64 {
		var n int64
		var d time.Duration
		for _, x := range xs {
			n += x.nodes
			d += x.d
		}
		return perUnit(d, n)
	}
	return ratio(per(diffs[len(diffs)-q:]), per(diffs[:q]))
}

// probe measures, one call at a time on the first cfg.probe changes, what
// the traced pipeline cannot time from outside: lexing inside Parse,
// hashing inside tree building, the service's S-expression and script
// codecs, and allocations per layer.
func (b *bench) probe(vals map[string]float64) error {
	eng := engine.New(b.sch, engine.Config{})
	defer eng.Close()
	var (
		lexNS, hashNS, sexEncNS, sexDecNS, encNS, decNS time.Duration
		parseAllocs, hashAllocs, diffAllocs             uint64
		parsed, targets, diffed, edits, wireBytes       int64
	)
	for _, c := range b.in.changes[:min(b.cfg.probe, len(b.in.changes))] {
		before, after := b.in.texts(c)
		start := time.Now()
		if _, err := pylang.Lex(after); err != nil {
			return err
		}
		lexNS += time.Since(start)

		f := pylang.NewFactory()
		o0, _ := heapCounters()
		src, err := pylang.Parse(before, f)
		if err != nil {
			return err
		}
		dst, err := pylang.Parse(after, f)
		if err != nil {
			return err
		}
		o1, _ := heapCounters()
		parseAllocs += o1 - o0
		parsed += int64(src.Size() + dst.Size())
		targets += int64(dst.Size())

		alloc := uri.NewAllocator()
		o1, _ = heapCounters()
		start = time.Now()
		tree.Clone(dst, alloc, tree.SHA256)
		hashNS += time.Since(start)
		o2, _ := heapCounters()
		hashAllocs += o2 - o1

		var script *truechange.Script
		if b.cfg.kind == freshPairs {
			res, err := structdiff.Diff(src, dst, structdiff.WithSchema(f.Schema()), structdiff.WithAllocator(f.Alloc()))
			if err != nil {
				return err
			}
			script = res.Script
		} else {
			res, err := eng.Diff(context.Background(), src, dst, f.Alloc())
			if err != nil {
				return err
			}
			script = res.Script
		}
		o3, _ := heapCounters()
		diffAllocs += o3 - o2
		diffed += int64(src.Size() + dst.Size())

		if b.cfg.kind != service {
			continue
		}
		start = time.Now()
		sx := tree.EncodeSExpr(dst)
		sexEncNS += time.Since(start)
		start = time.Now()
		if _, err := tree.DecodeSExpr(sx, b.sch, uri.NewAllocator()); err != nil {
			return err
		}
		sexDecNS += time.Since(start)
		start = time.Now()
		ws, err := diffserve.EncodeScript(script)
		if err != nil {
			return err
		}
		encNS += time.Since(start)
		start = time.Now()
		if _, err := ws.Decode(); err != nil {
			return err
		}
		decNS += time.Since(start)
		edits += int64(len(script.Edits))
		wireBytes += int64(len(ws.Edits))
	}
	vals["pylang.lex_ns_per_node"] = perUnit(lexNS, targets)
	vals["pylang.parse_allocs_per_node"] = ratio(float64(parseAllocs), float64(parsed))
	vals["tree.hash_ns_per_node"] = perUnit(hashNS, targets)
	vals["tree.hash_allocs_per_node"] = ratio(float64(hashAllocs), float64(targets))
	vals["truediff.diff_allocs_per_node"] = ratio(float64(diffAllocs), float64(diffed))
	if b.cfg.kind == service {
		// The service encodes and decodes inside Client.Diff and the
		// server, where the benchmark's spans cannot reach.
		vals["tree.sexpr_encode_ns_per_node"] = perUnit(sexEncNS, targets)
		vals["tree.sexpr_decode_ns_per_node"] = perUnit(sexDecNS, targets)
		vals["truechange.encode_ns_per_edit"] = perUnit(encNS, edits)
		vals["truechange.decode_ns_per_edit"] = perUnit(decNS, edits)
		vals["truechange.bytes_per_edit"] = ratio(float64(wireBytes), float64(edits))
	}
	return nil
}

// writeSpans writes a traced segment's spans to dir, one JSON object a
// line.
func writeSpans(dir, name string, seed int64, spans []telemetry.Span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSamples is reused by heapCounters, which is therefore only called
// from one goroutine at a time: the one measuring.
var heapSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

// heapCounters reads the process's cumulative heap allocation counters.
func heapCounters() (objects, bytes uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

var cpuSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

// cpuSeconds reads the runtime's estimates of CPU time spent on GC and in
// total.
func cpuSeconds() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// liveHeapMB forces a garbage collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perUnit(d time.Duration, n int64) float64 { return ratio(float64(d), float64(n)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int { return max(0, min(n-1, int(math.Ceil(q*float64(n)))-1)) }

func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
