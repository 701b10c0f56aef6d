// Command evaluate regenerates the paper's evaluation artifacts (DESIGN.md
// experiment index E1–E6) on the synthetic corpus and prints them as text:
//
//	evaluate -experiment fig4     # Figure 4: conciseness box plots
//	evaluate -experiment fig5     # Figure 5: throughput box plots
//	evaluate -experiment inca     # §6 incremental computing
//	evaluate -experiment scaling  # Theorem 4.1 linear run time
//	evaluate -experiment ablation # equivalence, selection order, hash kind
//	evaluate -experiment matching # §7: scripts from Gumtree matching
//	evaluate -experiment all
//
// Profiling (see docs/OBSERVABILITY.md; the same three flags exist on
// cmd/truediff):
//
//	evaluate -experiment fig5 -cpuprofile cpu.pprof     # pprof CPU profile
//	evaluate -experiment fig5 -memprofile mem.pprof     # post-run heap profile
//	evaluate -experiment scaling -exectrace trace.out   # runtime/trace
//
// The experiments diff without profiler labels, so a phase is isolated by
// its function: `go tool pprof -focus assignShares cpu.pprof` shows step 2.
//
// Corpus scale is configurable; the defaults finish in well under a minute.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/profiling"
	"repro/structdiff/corpus"
	"repro/structdiff/evaluation"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig4 | fig5 | inca | scaling | ablation | matching | all")
		seed       = flag.Int64("seed", 1, "corpus seed")
		files      = flag.Int("files", 20, "number of files in the synthetic repository")
		commits    = flag.Int("commits", 100, "number of commits to generate")
		minNodes   = flag.Int("min-nodes", 300, "minimum module size in AST nodes")
		maxNodes   = flag.Int("max-nodes", 2500, "maximum module size in AST nodes")
		reps       = flag.Int("reps", 3, "repetitions per file, fastest kept")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
		exectrace  = flag.String("exectrace", "", "write a runtime/trace execution trace to this file")
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
	case "all":
		fmt.Println(evaluation.Fig4(results).Report())
		fmt.Println(evaluation.Fig5(results).Report())
		fmt.Println(evaluation.RunIncA(evaluation.DefaultIncAConfig()).Report())
		fmt.Println(evaluation.ScalingReport(
			evaluation.RunScaling([]int{100, 1000, 10000, 100000}, 3)))
		fmt.Println(evaluation.AblationReport(evaluation.RunAblations(halfOpts)))
		fmt.Println(evaluation.RunMatching(halfOpts).Report())
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
	}
}
