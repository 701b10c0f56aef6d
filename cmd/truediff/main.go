// Command truediff diffs two Python source files (or JSON documents) and
// prints the truechange edit script, optionally verifying it against the
// linear type system and the standard semantics:
//
//	truediff old.py new.py             # print the edit script
//	truediff -check old.py new.py      # also type-check and verify patching
//	truediff -explain old.py new.py    # annotate each edit with its provenance
//	truediff -stats old.py new.py      # sizes, edit counts, timing
//	truediff -baselines old.py new.py  # compare against gumtree and hdiff
//	truediff -lang json a.json b.json  # diff JSON documents
//
// Three-way merge (see docs/MERGE.md): given an ancestor and two divergent
// versions, print one well-typed script carrying both sides' changes:
//
//	truediff -merge base.py ours.py theirs.py
//	truediff -merge -merge-policy ours base.py ours.py theirs.py
//
// Merge exit status: 0 merged cleanly, 2 conflicts reported (printed to
// stderr), 1 operational error.
//
// Profiling, in both modes (see docs/OBSERVABILITY.md; the same three
// flags exist on cmd/evaluate):
//
//	truediff -cpuprofile cpu.pprof old.py new.py   # pprof CPU profile
//	truediff -memprofile mem.pprof old.py new.py   # post-run heap profile
//	truediff -exectrace trace.out old.py new.py    # runtime/trace
//
// Each truediff step is one function, so a CPU profile isolates a step by
// name: `go tool pprof -focus assignShares cpu.pprof` shows step 2
// (assignSubtrees is step 3, computeEdits step 4).
//
// Exit status: 0 on success (even for non-empty diffs), 1 on errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/profiling"
	"repro/structdiff"
	"repro/structdiff/baselines/gumtree"
	"repro/structdiff/baselines/hdiff"
	"repro/structdiff/langs/jsonlang"
	"repro/structdiff/langs/pylang"
)

func main() {
	var (
		check       = flag.Bool("check", false, "type-check the script and verify patching")
		explain     = flag.Bool("explain", false, "annotate every edit with its provenance (equivalence class, selection outcome) and print script-quality metrics")
		stat        = flag.Bool("stats", false, "print sizes, edit counts, and timing")
		baselines   = flag.Bool("baselines", false, "also run gumtree and hdiff")
		quiet       = flag.Bool("quiet", false, "suppress the edit script itself")
		lang        = flag.String("lang", "python", "input language: python | json")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
		exectrace   = flag.String("exectrace", "", "write a runtime/trace execution trace to this file")
		mergeMode   = flag.Bool("merge", false, "three-way merge: truediff -merge ANCESTOR OURS THEIRS")
		mergePolicy = flag.String("merge-policy", "fail", "conflict resolution for -merge: fail | ours | theirs")
	)
	flag.Parse()
	if (*mergeMode && flag.NArg() != 3) || (!*mergeMode && flag.NArg() != 2) {
		fmt.Fprintln(os.Stderr, "usage: truediff [-check] [-explain] [-stats] [-baselines] [-quiet] [-lang python|json] [PROFILING] OLD NEW\n"+
			"       truediff -merge [-merge-policy fail|ours|theirs] [-stats] [-quiet] [-lang python|json] [PROFILING] ANCESTOR OURS THEIRS\n"+
			"PROFILING: [-cpuprofile FILE] [-memprofile FILE] [-exectrace FILE]")
		os.Exit(1)
	}
	// The profilers run around either mode and stop before every exit, so
	// each profile they write is complete.
	stop, err := profiling.Start(profiling.Config{CPUProfile: *cpuprofile, MemProfile: *memprofile, ExecTrace: *exectrace})
	if err != nil {
		fmt.Fprintln(os.Stderr, "truediff:", err)
		os.Exit(1)
	}
	if *mergeMode {
		err = runMerge(flag.Arg(0), flag.Arg(1), flag.Arg(2), *lang, *mergePolicy, *stat, *quiet)
	} else {
		err = run(flag.Arg(0), flag.Arg(1), *lang, *explain, *check, *stat, *baselines, *quiet)
	}
	serr := stop()
	if serr != nil {
		fmt.Fprintln(os.Stderr, "truediff:", serr)
	}
	switch {
	case errors.Is(err, errMergeConflicts):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "truediff:", err)
		os.Exit(1)
	case serr != nil:
		os.Exit(1)
	}
}

// parseAll loads every input as a typed tree over one schema and allocator.
func parseAll(lang string, paths ...string) (*structdiff.Schema, *structdiff.Allocator, []*structdiff.Node, error) {
	srcs := make([]string, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, nil, err
		}
		srcs[i] = string(raw)
	}
	trees := make([]*structdiff.Node, len(paths))
	switch lang {
	case "python":
		f := pylang.NewFactory()
		for i, src := range srcs {
			t, err := pylang.Parse(src, f)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", paths[i], err)
			}
			trees[i] = t
		}
		return f.Schema(), f.Alloc(), trees, nil
	case "json":
		c := jsonlang.NewCodec()
		for i, src := range srcs {
			t, err := c.Parse(src)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", paths[i], err)
			}
			trees[i] = t
		}
		return c.Schema(), c.Alloc(), trees, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown language %q", lang)
	}
}

// parseBoth loads both inputs as typed trees over one schema and allocator.
func parseBoth(lang, oldPath, newPath string) (*structdiff.Schema, *structdiff.Allocator, *structdiff.Node, *structdiff.Node, error) {
	sch, alloc, trees, err := parseAll(lang, oldPath, newPath)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return sch, alloc, trees[0], trees[1], nil
}

// runMerge implements -merge: three-way merge of two descendants against a
// common ancestor. It prints the merged script (unless -quiet) and, with
// -stats, the merge statistics. Conflicts under -merge-policy fail are
// printed one per line; main turns errMergeConflicts into exit status 2.
func runMerge(basePath, oursPath, theirsPath, lang, policy string, stat, quiet bool) error {
	pol, err := structdiff.ParseMergePolicy(policy)
	if err != nil {
		return err
	}
	sch, alloc, trees, err := parseAll(lang, basePath, oursPath, theirsPath)
	if err != nil {
		return err
	}
	base, ours, theirs := trees[0], trees[1], trees[2]

	start := time.Now()
	res, err := structdiff.Merge(base, ours, theirs,
		structdiff.WithSchema(sch), structdiff.WithAllocator(alloc), structdiff.WithMergePolicy(pol))
	elapsed := time.Since(start)
	if err != nil {
		var ce *structdiff.MergeConflictError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "merge: %d conflicts:\n", len(ce.Conflicts))
			for _, c := range ce.Conflicts {
				fmt.Fprintf(os.Stderr, "  %v\n", c)
			}
			return errMergeConflicts
		}
		return err
	}

	if !quiet {
		fmt.Println(res.Script)
	}
	for _, c := range res.Conflicts {
		fmt.Fprintf(os.Stderr, "resolved (%v): %v\n", c.Resolution, c)
	}
	if stat {
		s := res.Stats
		fmt.Printf("ancestor nodes: %d\n", base.Size())
		fmt.Printf("ours:           %d edits in %d groups\n", s.OursEdits, s.OursGroups)
		fmt.Printf("theirs:         %d edits in %d groups\n", s.TheirsEdits, s.TheirsGroups)
		fmt.Printf("merged:         %d edits (%d dropped by policy)\n", s.MergedEdits, s.DroppedEdits)
		fmt.Printf("conflicts:      %d resolved %v, %d auto-resolved convergent\n", s.Conflicts, pol, s.AutoResolved)
		fmt.Printf("merge time:     %s\n", elapsed)
	}

	// The merged script is verified well-typed and applicable by the merge
	// itself; apply it here so the CLI's success means "this script
	// patches the ancestor", same as -check does for plain diffs.
	mt, err := structdiff.MTreeFromTree(sch, base)
	if err != nil {
		return err
	}
	if err := structdiff.ApplyMerge(mt, res, nil); err != nil {
		return fmt.Errorf("merged script does not apply: %w", err)
	}
	return nil
}

// errMergeConflicts signals main to exit with status 2 (conflicts found
// and reported; distinct from operational failure).
var errMergeConflicts = errors.New("merge conflicts")

func run(oldPath, newPath, lang string, explain, check, stat, baselines, quiet bool) error {
	sch, alloc, before, after, err := parseBoth(lang, oldPath, newPath)
	if err != nil {
		return err
	}
	opts := []structdiff.Option{structdiff.WithSchema(sch), structdiff.WithAllocator(alloc)}
	var (
		res  *structdiff.Result
		prov *structdiff.Explanation
		qual *structdiff.QualityMetrics
	)
	start := time.Now()
	if explain {
		var ex *structdiff.Explained
		ex, err = structdiff.Explain(before, after,
			append(opts, structdiff.WithQualityBaseline(structdiff.DefaultQualityBaselineMaxNodes))...)
		if err == nil {
			res, prov, qual = ex.Result, ex.Provenance, &ex.Quality
		}
	} else {
		res, err = structdiff.Diff(before, after, opts...)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}

	if !quiet {
		if prov != nil {
			for i, e := range res.Script.Edits {
				fmt.Println(e)
				if i < len(prov.Edits) {
					fmt.Println("    ^", prov.Edits[i])
				}
			}
		} else {
			fmt.Println(res.Script)
		}
	}
	if prov != nil && qual != nil {
		fmt.Printf("explain: %d preemptive, %d selected (%d exact), %d revoked\n",
			prov.Preemptive, prov.Selected, prov.PreferredWins, prov.Revoked)
		fmt.Printf("quality: reuse %.1f%%, %.2f edits/changed node, script/tree %.3f\n",
			100*qual.ReuseRatio, qual.EditsPerChangedNode, qual.ScriptTreeRatio)
		if qual.Baselined {
			fmt.Printf("quality: optimality gap %+.1f%% (%d compound vs %d minimal)\n",
				100*qual.OptimalityGap, qual.CompoundEdits, qual.MinimalEdits)
		}
	}
	if stat {
		fmt.Printf("source nodes:  %d\n", before.Size())
		fmt.Printf("target nodes:  %d\n", after.Size())
		fmt.Printf("edits:         %d raw, %d compound\n", res.Script.Len(), res.Script.EditCount())
		fmt.Printf("breakdown:     %s\n", structdiff.ComputeStats(res.Script))
		fmt.Printf("diff time:     %s (%.0f nodes/ms)\n", elapsed,
			float64(before.Size()+after.Size())/(float64(elapsed.Nanoseconds())/1e6))
	}
	if check {
		if err := structdiff.WellTyped(sch, res.Script); err != nil {
			return fmt.Errorf("script is ill-typed: %w", err)
		}
		mt, err := structdiff.MTreeFromTree(sch, before)
		if err != nil {
			return err
		}
		if err := mt.Comply(res.Script); err != nil {
			return fmt.Errorf("script does not comply with the source tree: %w", err)
		}
		if err := mt.Patch(res.Script); err != nil {
			return fmt.Errorf("patching failed: %w", err)
		}
		if !mt.EqualTree(after) {
			return fmt.Errorf("patched tree does not equal the target tree")
		}
		fmt.Println("check: script is well-typed and patches the source into the target ✓")
	}
	if baselines {
		gs, gd := gumtree.FromTree(before), gumtree.FromTree(after)
		gStart := time.Now()
		gScript, _ := gumtree.Diff(gs, gd, gumtree.DefaultOptions())
		gElapsed := time.Since(gStart)
		hStart := time.Now()
		patch := hdiff.Diff(before, after, hdiff.DefaultOptions())
		hElapsed := time.Since(hStart)
		fmt.Printf("baseline gumtree: %d actions in %s\n", gScript.Len(), gElapsed)
		fmt.Printf("baseline hdiff:   %d constructors in %s\n", patch.Size(), hElapsed)
		fmt.Printf("truediff:         %d compound edits in %s\n", res.Script.EditCount(), elapsed)
	}
	return nil
}
