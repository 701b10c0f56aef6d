// Command pipebench is the repository's whole-pipeline benchmark. It
// generates seeded Python source histories and drives them, as text,
// through pylang parsing (which builds and hashes the trees), truediff —
// through the structdiff facade, the engine, or an in-process diffd on
// loopback — the truechange script codec and mtree patching, and checks
// every output. README.md in this directory describes the workloads and
// the metrics, and which layer metric should move which end-to-end metric.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash pipebench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run. A failed check makes
// correct false and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/pylang"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also show on it.
const heldOutSeed = 7919

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the package test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"allocs_per_node", "allocs/node"},
	{"alloc_bytes_per_node", "B/node"},
	{"retained_heap_mb", "MB"},
	{"edits_per_change", "edits/change"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"pylang.parse_ns_per_node", "ns/node"},
	{"pylang.parse_allocs_per_node", "allocs/node"},
	{"pylang.lex_ns_per_node", "ns/node"},
	{"tree.hash_ns_per_node", "ns/node"},
	{"tree.hash_allocs_per_node", "allocs/node"},
	{"tree.sexpr_encode_ns_per_node", "ns/node"},
	{"tree.sexpr_decode_ns_per_node", "ns/node"},
	{"truediff.prepare_ns_per_node", "ns/node"},
	{"truediff.shares_ns_per_node", "ns/node"},
	{"truediff.select_ns_per_node", "ns/node"},
	{"truediff.emit_ns_per_node", "ns/node"},
	{"truediff.diff_allocs_per_node", "allocs/node"},
	{"truediff.size_ratio", "ratio"},
	{"engine.diff_ns_per_node", "ns/node"},
	{"engine.self_ns_per_diff", "ns/diff"},
	{"engine.pool_hit_ratio", "ratio"},
	{"engine.store_hit_ratio", "ratio"},
	{"engine.utilization", "ratio"},
	{"engine.explain_overhead_ratio", "ratio"},
	{"engine.spans_overhead_ratio", "ratio"},
	{"truechange.encode_ns_per_edit", "ns/edit"},
	{"truechange.decode_ns_per_edit", "ns/edit"},
	{"truechange.bytes_per_edit", "B/edit"},
	{"mtree.fromtree_ns_per_node", "ns/node"},
	{"mtree.totree_ns_per_node", "ns/node"},
	{"mtree.patch_ns_per_edit", "ns/edit"},
	{"diffserve.request_bytes_per_change", "B/change"},
	{"diffserve.response_bytes_per_change", "B/change"},
	{"diffserve.server_ms_p50", "ms"},
	{"diffserve.client_ms_p50", "ms"},
	{"diffserve.queue_wait_ms_p50", "ms"},
	{"diffserve.batch_size_mean", "jobs/batch"},
	{"diffserve.shed_ratio", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "timed wall to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spanDir := fs.String("spans-dir", ".bench_build/spans", "directory a traced run writes its spans to; empty writes none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pipebench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	res, err := runWorkload(cfg, *seed, budget, *trace == 1, *spanDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up cfg.setupReps times, then measures it:
// the end-to-end metrics, or with traced the per-layer ones. It prints a
// readable report to out and returns the result line.
func runWorkload(cfg config, seed int64, budget time.Duration, traced bool, spanDir string, out io.Writer) (*result, error) {
	b := &bench{cfg: cfg, seed: seed, sch: pylang.Schema()}
	defer b.close()
	setups := make([]float64, cfg.setupReps)
	for i := range setups {
		b.close()
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	fp := b.in.fp
	fmt.Fprintf(out, "pipebench: workload %s, seed %d (held-out seed for claims: %d), %v timed, trace %v\n",
		cfg.name, seed, heldOutSeed, budget, traced)
	fmt.Fprintf(out, "host: %s %s/%s, nproc %d, GOMAXPROCS %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "input: %d changes, %d nodes, %d source bytes, %d generator edits, text hash %016x\n",
		fp.changes, fp.nodes, fp.sourceBytes, fp.edits, fp.hash)

	defs := endToEnd
	var (
		vals map[string]float64
		t    tally
		err  error
	)
	if traced {
		defs = perLayer
		vals, t, err = b.tracedRun(budget, spanDir, out)
	} else {
		vals, t, err = b.endToEndRun(budget, out)
		if vals != nil {
			vals["setup_s"] = median(setups)
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	if !traced {
		fmt.Fprintf(out, "  %-36s %14.6g ratio (%d of %d changes failed)\n", "error_ratio",
			ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	}
	if t.firstErr != nil {
		fmt.Fprintln(out, "failure:", t.firstErr)
	}
	return res, nil
}
