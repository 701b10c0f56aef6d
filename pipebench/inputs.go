package main

import (
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/pylang"
)

// kind selects a workload's pipeline.
type kind int

const (
	freshPairs kind = iota
	replay
	service
)

// config sizes one workload. The counts are pinned so that reports from
// different commits stay comparable.
type config struct {
	name string
	kind kind
	// files modules, with sizes spread evenly over [minNodes, maxNodes],
	// each changed changesPerFile times; change j of file f applies
	// 1 + (f+j) mod maxEdits generator edits. Sizes and edit counts on a
	// fixed grid, rather than drawn at random, keep the latency
	// distribution from moving with the seed. Where the size steps are
	// wide, an odd file count puts the median change inside one file's
	// cluster instead of in the gap between two.
	files, minNodes, maxNodes, changesPerFile, maxEdits int
	// tail is the percentile latency_tail_ms reports: the highest with at
	// least ten samples beyond it in a 10 s run on a 2-core host.
	tail float64
	// Each run sets up setupReps times (setup_s is the median), each set-up
	// warming up on the first warmup changes; a traced run's probes sample
	// the first probe changes.
	setupReps, warmup, probe int
	// dropEdit deletes the last edit of every script the pipeline decodes:
	// a fault the output checks must catch. Tests only.
	dropEdit bool
}

var workloads = map[string]config{
	"fresh-pairs": {
		name: "fresh-pairs", kind: freshPairs,
		files: 9, minNodes: 1000, maxNodes: 10000, changesPerFile: 12, maxEdits: 10,
		tail: 0.95, setupReps: 3, warmup: 4, probe: 16,
	},
	"replay": {
		name: "replay", kind: replay,
		files: 12, minNodes: 600, maxNodes: 1500, changesPerFile: 20, maxEdits: 2,
		tail: 0.99, setupReps: 3, warmup: 12, probe: 24,
	},
	// service replays the same history as replay, seed for seed.
	"service": {
		name: "service", kind: service,
		files: 12, minNodes: 600, maxNodes: 1500, changesPerFile: 20, maxEdits: 2,
		tail: 0.99, setupReps: 3, warmup: 12, probe: 24,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// inputs is one seeded workload as the pipeline sees it: Python source
// text only.
type inputs struct {
	// versions[f][v] is file f after its first v changes.
	versions [][]string
	// changes visits the files round-robin, so one pass over it leaves
	// every file at its last version.
	changes []change
	fp      fingerprint
}

// change turns versions[file][version-1] into versions[file][version].
type change struct {
	file, version int
}

func (in *inputs) texts(c change) (before, after string) {
	vs := in.versions[c.file]
	return vs[c.version-1], vs[c.version]
}

// fingerprint identifies the generated input, so that a generator change
// shows up as a different input rather than as a speed change.
type fingerprint struct {
	changes, nodes, sourceBytes, edits int
	hash                               uint64
}

// generate builds a workload's inputs from the seed. Files are generated
// independently, each from a seed of its own, by one goroutine per core.
func generate(cfg config, seed int64) *inputs {
	in := &inputs{versions: make([][]string, cfg.files)}
	edits := make([][]int, cfg.files)
	nodes := make([]int, cfg.files)
	files := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), cfg.files); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range files {
				in.versions[f], edits[f], nodes[f] = generateFile(cfg, seed, f)
			}
		}()
	}
	for f := 0; f < cfg.files; f++ {
		files <- f
	}
	close(files)
	wg.Wait()

	h := fnv.New64a()
	for f, vs := range in.versions {
		in.fp.nodes += nodes[f]
		for _, k := range edits[f] {
			in.fp.edits += k
		}
		for _, v := range vs {
			in.fp.sourceBytes += len(v)
			_, _ = io.WriteString(h, v) // writes to a hash never fail
		}
	}
	for j := 0; j < cfg.changesPerFile; j++ {
		for f := range in.versions {
			in.changes = append(in.changes, change{file: f, version: j + 1})
		}
	}
	in.fp.changes = len(in.changes)
	in.fp.hash = h.Sum64()
	return in
}

// generateFile renders file f's versions: one corpus history of
// single-edit commits, grouped into changes. It also returns each change's
// edit count and the changes' summed source and target nodes.
func generateFile(cfg config, seed int64, f int) (versions []string, edits []int, nodes int) {
	size := cfg.minNodes
	if cfg.files > 1 {
		size += f * (cfg.maxNodes - cfg.minNodes) / (cfg.files - 1)
	}
	total := 0
	for j := 0; j < cfg.changesPerFile; j++ {
		k := 1 + (f+j)%cfg.maxEdits
		edits = append(edits, k)
		total += k
	}
	hist := corpus.Generate(corpus.Options{
		Seed: seed*1_000_003 + int64(f), Files: 1, Commits: total,
		MaxFilesPerCommit: 1, MinNodes: size, MaxNodes: size, MaxEditsPerFile: 1,
	})
	prev := hist.Commits[0].Files[0].Before
	versions = []string{pylang.Render(prev)}
	at := 0
	for _, k := range edits {
		at += k
		next := hist.Commits[at-1].Files[0].After
		versions = append(versions, pylang.Render(next))
		nodes += prev.Size() + next.Size()
		prev = next
	}
	return versions, edits, nodes
}
