// Command corpusgen writes a synthetic repository history to disk as
// rendered Python sources, so the truediff CLI (and external tools) can be
// exercised on file pairs:
//
//	corpusgen -out /tmp/corpus -commits 20
//	truediff -stats /tmp/corpus/commit-0003/engine_utils_2.py.before \
//	                /tmp/corpus/commit-0003/engine_utils_2.py.after
//
// Every commit directory holds NAME.before / NAME.after pairs for the
// files it changed, plus a CHANGES file listing the applied edit kinds.
// Bad usage (a flag that cannot generate a corpus, a positional argument)
// exits 2 before anything is written.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/structdiff/corpus"
)

func main() {
	var (
		out      = flag.String("out", "corpus-out", "output directory")
		seed     = flag.Int64("seed", 1, "corpus seed")
		files    = flag.Int("files", 10, "files in the repository")
		commits  = flag.Int("commits", 20, "commits to generate")
		minNodes = flag.Int("min-nodes", 200, "minimum module size in AST nodes")
		maxNodes = flag.Int("max-nodes", 1500, "maximum module size in AST nodes")
	)
	flag.Parse()

	opts := corpus.Options{
		Seed: *seed, Files: *files, Commits: *commits,
		MaxFilesPerCommit: 3, MinNodes: *minNodes, MaxNodes: *maxNodes,
		MaxEditsPerFile: 4,
	}
	err := opts.Validate()
	if flag.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		flag.Usage()
		os.Exit(2)
	}
	h := corpus.Generate(opts)

	written := 0
	for _, c := range h.Commits {
		dir := filepath.Join(*out, fmt.Sprintf("commit-%04d", c.Seq))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		var changes strings.Builder
		for _, fc := range c.Files {
			before, after := corpus.RenderChange(fc)
			base := strings.ReplaceAll(fc.Path, "/", "_")
			if err := os.WriteFile(filepath.Join(dir, base+".before"), []byte(before), 0o644); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, base+".after"), []byte(after), 0o644); err != nil {
				fatal(err)
			}
			kinds := make([]string, len(fc.Edits))
			for i, k := range fc.Edits {
				kinds[i] = k.String()
			}
			fmt.Fprintf(&changes, "%s: %s\n", fc.Path, strings.Join(kinds, ", "))
			written++
		}
		if err := os.WriteFile(filepath.Join(dir, "CHANGES"), []byte(changes.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d file pairs across %d commits to %s\n", written, *commits, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	os.Exit(1)
}
