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
// Each truediff step is one function, so a CPU profile isolates a step by
// name: `go tool pprof -focus assignShares cpu.pprof` shows step 2
// (assignSubtrees is step 3, computeEdits step 4).
//
// Corpus scale is configurable; the defaults finish in well under a minute.
// Bad usage (an unknown experiment, a corpus flag that cannot generate a
// corpus, a positional argument) exits 2 before any profiler starts.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

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
	scalingSizes := []int{100, 316, 1000, 3162, 10000, 31623, 100000}
	if *experiment == "all" {
		scalingSizes = []int{100, 1000, 10000, 100000}
	}
	// fig4 and fig5 share one corpus run.
	results := sync.OnceValue(func() []evaluation.FileResult {
		runner := evaluation.NewRunner(evaluation.Config{Corpus: fullOpts, Reps: *reps, Warmup: 20})
		fmt.Fprintf(os.Stderr, "corpus: %d changed files across %d commits\n",
			len(runner.History().Changes()), *commits)
		return runner.Run()
	})
	// experiments is the one list of -experiment values; "all" runs each
	// in order. corpus is the options an experiment generates its corpus
	// from, if it generates one, and from is where they come from.
	const full, half = "-files and -commits", "half of -files and -commits"
	experiments := []struct {
		name, from string
		corpus     *corpus.Options
		report     func() string
	}{
		{"fig4", full, &fullOpts, func() string { return evaluation.Fig4(results()).Report() }},
		{"fig5", full, &fullOpts, func() string { return evaluation.Fig5(results()).Report() }},
		{"inca", "", nil, func() string { return evaluation.RunIncA(evaluation.DefaultIncAConfig()).Report() }},
		{"scaling", "", nil, func() string { return evaluation.ScalingReport(evaluation.RunScaling(scalingSizes, 3)) }},
		{"ablation", half, &halfOpts, func() string { return evaluation.AblationReport(evaluation.RunAblations(halfOpts)) }},
		{"matching", half, &halfOpts, func() string { return evaluation.RunMatching(halfOpts).Report() }},
	}
	// Bad usage exits before any profiler starts, so it leaves no empty
	// profile behind.
	if flag.NArg() > 0 {
		usageError(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var reports []func() string
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		if e.corpus != nil {
			if err := e.corpus.Validate(); err != nil {
				usageError(fmt.Errorf("experiment %s runs on %s: %w", e.name, e.from, err))
			}
		}
		reports = append(reports, e.report)
	}
	if len(reports) == 0 {
		usageError(fmt.Errorf("unknown experiment %q", *experiment))
	}

	stopProf, err := profiling.Start(profiling.Config{CPUProfile: *cpuprofile, MemProfile: *memprofile, ExecTrace: *exectrace})
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
	for _, report := range reports {
		fmt.Println(report())
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: %v\n", err)
		os.Exit(1)
	}
}

// usageError reports bad usage on one line, then the usage, and exits 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "evaluate:", err)
	flag.Usage()
	os.Exit(2)
}
