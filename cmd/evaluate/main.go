// Command evaluate regenerates the paper's evaluation artifacts (DESIGN.md
// experiment index E1–E6) on the synthetic corpus and prints them as text:
//
//	evaluate -experiment fig4     # Figure 4: conciseness box plots
//	evaluate -experiment fig5     # Figure 5: throughput box plots
//	evaluate -experiment inca     # §6 incremental computing
//	evaluate -experiment scaling  # Theorem 4.1 linear run time
//	evaluate -experiment ablation # equivalence, selection order, hash kind
//	evaluate -experiment matching # §7: scripts from Gumtree matching
//	evaluate -experiment engine   # batch engine vs sequential replay
//	evaluate -experiment all
//
// The engine replay exits 1 when an engine script disagrees with
// sequential diffing, so a small run of it is a correctness smoke test.
//
// Observability (engine-backed experiments):
//
//	evaluate -experiment engine -metrics-addr :9090   # live /metrics, expvar, pprof
//	evaluate -experiment engine -trace out.jsonl      # one JSONL record per diff
//	evaluate -experiment engine -slow-diff 5ms        # log diffs at/above 5ms
//
// Profiling (see docs/OBSERVABILITY.md; the same three flags exist on
// cmd/truediff):
//
//	evaluate -experiment fig5 -cpuprofile cpu.pprof   # pprof CPU profile
//	evaluate -experiment engine -memprofile mem.pprof # post-run heap profile
//	evaluate -experiment engine -exectrace trace.out  # runtime/trace; phases
//	                                                  # appear as truediff/* regions
//
// Profiling flags enable pprof phase labels automatically, so
// `go tool pprof -tagfocus phase=shares cpu.pprof` isolates one phase.
//
// Corpus scale is configurable; the defaults finish in well under a minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/profiling"
	"repro/structdiff"
	"repro/structdiff/corpus"
	"repro/structdiff/evaluation"
	"repro/structdiff/langs/pylang"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "fig4 | fig5 | inca | scaling | ablation | matching | engine | all")
		seed        = flag.Int64("seed", 1, "corpus seed")
		files       = flag.Int("files", 20, "number of files in the synthetic repository")
		commits     = flag.Int("commits", 100, "number of commits to generate")
		minNodes    = flag.Int("min-nodes", 300, "minimum module size in AST nodes")
		maxNodes    = flag.Int("max-nodes", 2500, "maximum module size in AST nodes")
		reps        = flag.Int("reps", 3, "repetitions per file, fastest kept")
		workers     = flag.Int("workers", 8, "worker goroutines for the engine experiment")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars, and /debug/pprof on this address while running")
		tracePath   = flag.String("trace", "", "write one JSONL trace record per engine diff to this file")
		traceMax    = flag.Int64("trace-max-bytes", 0, "rotate the -trace file past this size, keeping one .1 predecessor (0 disables)")
		slowDiff    = flag.Duration("slow-diff", 0, "log engine diffs whose wall time meets or exceeds this threshold (0 disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (enables phase labels)")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
		exectrace   = flag.String("exectrace", "", "write a runtime/trace execution trace to this file (phases appear as truediff/* regions)")
	)
	flag.Parse()

	prof := profiling.Config{CPUProfile: *cpuprofile, MemProfile: *memprofile, ExecTrace: *exectrace}
	stopProf := func() error { return nil }
	if prof.Enabled() {
		var err error
		stopProf, err = profiling.Start(prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
			os.Exit(1)
		}
	}

	fullOpts := corpus.Options{
		Seed: *seed, Files: *files, Commits: *commits,
		MaxFilesPerCommit: 4, MinNodes: *minNodes, MaxNodes: *maxNodes,
		MaxEditsPerFile: 4,
	}
	halfOpts := corpus.Options{
		Seed: *seed, Files: *files / 2, Commits: *commits / 2,
		MaxFilesPerCommit: 3, MinNodes: *minNodes, MaxNodes: *maxNodes,
		MaxEditsPerFile: 4,
	}
	engineCfg := evaluation.Config{Corpus: halfOpts, Reps: *reps, Warmup: 20}

	// One engine serves every engine-backed experiment of the invocation,
	// with tracing, slow-diff logging, and the metrics endpoint wired to
	// it. Experiments that never touch it leave its counters at zero.
	engOpts := []structdiff.Option{structdiff.WithWorkers(*workers)}
	if prof.Enabled() {
		engOpts = append(engOpts, structdiff.WithProfileLabels())
	}
	if *slowDiff > 0 {
		engOpts = append(engOpts, structdiff.WithSlowDiffThreshold(*slowDiff))
	}
	var traceWriter *structdiff.TraceWriter
	var traceFile io.Closer
	if *tracePath != "" {
		// Rotation keeps append semantics (records accumulate across runs,
		// rolling past the bound); without it each run starts fresh.
		var w io.WriteCloser
		if *traceMax > 0 {
			rf, err := structdiff.OpenRotatingFile(*tracePath, *traceMax)
			if err != nil {
				fmt.Fprintf(os.Stderr, "evaluate: -trace: %v\n", err)
				os.Exit(1)
			}
			w = rf
		} else {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "evaluate: -trace: %v\n", err)
				os.Exit(1)
			}
			w = f
		}
		traceFile = w
		traceWriter = structdiff.NewTraceWriter(w)
		engOpts = append(engOpts, structdiff.WithObserver(func(ev structdiff.DiffEvent) {
			_ = traceWriter.Write(ev.TraceRecord())
		}))
	}
	eng, err := structdiff.NewEngine(pylang.Schema(), engOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof)\n", *metricsAddr)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, structdiff.MetricsHandler(eng)); err != nil {
				fmt.Fprintf(os.Stderr, "evaluate: metrics server: %v\n", err)
			}
		}()
	}

	// The engine replay's agreement verdict decides the exit status, so a
	// smoke run fails when the engine and sequential diffing disagree.
	agree := true
	engineReplay := func() {
		r := evaluation.RunEngineReplayOn(eng, engineCfg)
		fmt.Println(r.Report())
		agree = r.ScriptsAgree
	}

	needCorpus := *experiment == "fig4" || *experiment == "fig5" || *experiment == "all"
	var results []evaluation.FileResult
	if needCorpus {
		cfg := evaluation.Config{Corpus: fullOpts, Reps: *reps, Warmup: 20}
		runner := evaluation.NewRunner(cfg)
		fmt.Fprintf(os.Stderr, "corpus: %d changed files across %d commits\n",
			len(runner.History().Changes()), *commits)
		results = runner.Run()
	}

	switch *experiment {
	case "fig4":
		fmt.Println(evaluation.Fig4(results).Report())
	case "fig5":
		fmt.Println(evaluation.Fig5(results).Report())
	case "inca":
		fmt.Println(evaluation.RunIncA(evaluation.DefaultIncAConfig()).Report())
	case "scaling":
		fmt.Println(evaluation.ScalingReport(
			evaluation.RunScaling([]int{100, 316, 1000, 3162, 10000, 31623, 100000}, 3)))
	case "ablation":
		fmt.Println(evaluation.AblationReport(evaluation.RunAblations(halfOpts)))
	case "matching":
		fmt.Println(evaluation.RunMatching(halfOpts).Report())
	case "engine":
		engineReplay()
	case "all":
		fmt.Println(evaluation.Fig4(results).Report())
		fmt.Println(evaluation.Fig5(results).Report())
		fmt.Println(evaluation.RunIncA(evaluation.DefaultIncAConfig()).Report())
		fmt.Println(evaluation.ScalingReport(
			evaluation.RunScaling([]int{100, 1000, 10000, 100000}, 3)))
		fmt.Println(evaluation.AblationReport(evaluation.RunAblations(halfOpts)))
		fmt.Println(evaluation.RunMatching(halfOpts).Report())
		engineReplay()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	// Every experiment that routed diffs through the shared engine gets a
	// final cumulative snapshot (the per-experiment reports above show
	// per-replay deltas).
	if snap := eng.Snapshot(); snap.Diffs > 0 {
		fmt.Printf("final engine snapshot:\n%s\n", snap)
		if *slowDiff > 0 {
			fmt.Printf("slow diffs (>= %v): %d\n", *slowDiff, snap.SlowDiffs)
		}
	}
	if traceWriter != nil {
		if err := traceWriter.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: trace: %v\n", err)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: trace: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d records written to %s\n", traceWriter.Count(), *tracePath)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
	}
	if !agree {
		os.Exit(1)
	}
}
