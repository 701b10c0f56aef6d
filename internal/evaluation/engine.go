package evaluation

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/pylang"
	"repro/internal/tree"
	"repro/internal/truechange"
	"repro/internal/truediff"
	"repro/internal/uri"
)

// This file measures the batch engine against plain sequential diffing on
// the same corpus replay, and verifies along the way that the engine is a
// pure performance layer. The sequential side mirrors the methodology of
// Runner.measure — trees are reconstructed per diff so hashing is part of
// the measured work. The engine side copies each pair with an allocator of
// its own, as the sequential side does, so the two sides number every node
// alike; Ingest copies the corpus trees' SHA-256 digests instead of
// rehashing them, and the diffs recycle pooled scratch state.

// EngineReplayResult compares the batch engine against sequential diffing
// over one corpus replay.
type EngineReplayResult struct {
	Files int // file changes replayed
	Nodes int // total input nodes (source + target)

	SequentialNS int64 // wall time of the sequential replay
	EngineNS     int64 // wall time of ingest + batch through the engine
	Speedup      float64

	// ScriptsAgree is the correctness verdict: every engine script equals
	// its sequential counterpart edit for edit, URIs included
	// (truechange.EqualEdits), and patches its source into a tree
	// content-equal to the target. Mismatches counts the disagreeing file
	// changes (0 when ScriptsAgree).
	ScriptsAgree bool
	Mismatches   int

	// Snapshot is the engine's metrics delta over the replay (pool hit
	// rate, ingest counts, per-diff wall totals): the difference of the
	// snapshots taken after and before the batch (Snapshot.Sub), so a
	// reused engine reports this replay's numbers, not its lifetime's.
	Snapshot engine.Snapshot
}

// RunEngineReplay replays every file change of the configured corpus twice
// — once through a fresh sequential differ, once through a batch engine
// with the given worker count — and returns timings, the script-agreement
// verdict, and the engine's metrics snapshot.
func RunEngineReplay(cfg Config, workers int) *EngineReplayResult {
	// pylang.Schema() is the shared instance the corpus generator's factory
	// builds against, so the differ's schema check is a pointer comparison.
	return RunEngineReplayOn(engine.New(pylang.Schema(), engine.Config{Workers: workers}), cfg)
}

// RunEngineReplayOn is RunEngineReplay over a caller-supplied engine — the
// one cmd/evaluate wires tracing, observers, and the metrics endpoint to.
// The engine must accept pylang trees (any engine over a pylang schema
// does); its worker count is whatever it was configured with. The result's
// Snapshot is the engine's per-replay delta, leaving the engine's
// cumulative counters untouched for the caller.
func RunEngineReplayOn(e *engine.Engine, cfg Config) *EngineReplayResult {
	h := corpus.Generate(cfg.Corpus)
	sch := h.Factory.Schema()
	changes := h.Changes()

	res := &EngineReplayResult{Files: len(changes)}
	for _, fc := range changes {
		res.Nodes += fc.Before.Size() + fc.After.Size()
	}

	// Sequential replay: clone (hash) and diff each pair with a fresh
	// allocator, keeping the scripts for the agreement check.
	d := truediff.New(sch)
	seqScripts := make([]*truechange.Script, 0, len(changes))
	seqStart := time.Now()
	for _, fc := range changes {
		alloc := uri.NewAllocator()
		src := tree.Clone(fc.Before, alloc, tree.SHA256)
		dst := tree.Clone(fc.After, alloc, tree.SHA256)
		out, err := d.Diff(src, dst, alloc)
		if err != nil {
			panic(fmt.Sprintf("evaluation: sequential diff failed on %s: %v", fc.Path, err))
		}
		seqScripts = append(seqScripts, out.Script)
	}
	res.SequentialNS = time.Since(seqStart).Nanoseconds()

	// Engine replay: copy each pair with an allocator of its own, which
	// the pair then draws its loads from, and diff the pairs as one batch.
	before := e.Snapshot()
	engStart := time.Now()
	pairs := make([]engine.Pair, len(changes))
	for i, fc := range changes {
		alloc := uri.NewAllocator()
		pairs[i] = engine.Pair{
			Source: e.Ingest(fc.Before, alloc),
			Target: e.Ingest(fc.After, alloc),
			Alloc:  alloc,
			Label:  fmt.Sprintf("%s#%d", fc.Path, i),
		}
	}
	results, err := e.DiffBatch(nil, pairs)
	if err != nil {
		panic(fmt.Sprintf("evaluation: engine batch failed: %v", err))
	}
	res.EngineNS = time.Since(engStart).Nanoseconds()

	res.ScriptsAgree = true
	for i, pr := range results {
		if pr.Err != nil {
			panic(fmt.Sprintf("evaluation: engine diff failed on %s: %v", changes[i].Path, pr.Err))
		}
		if !truechange.EqualEdits(pr.Result.Script.Edits, seqScripts[i].Edits) ||
			!tree.Equal(pr.Result.Patched, changes[i].After) {
			res.ScriptsAgree = false
			res.Mismatches++
		}
	}
	if res.EngineNS > 0 {
		res.Speedup = float64(res.SequentialNS) / float64(res.EngineNS)
	}
	res.Snapshot = e.Snapshot().Sub(before)
	return res
}

// Report renders the comparison for CLI output.
func (r *EngineReplayResult) Report() string {
	verdict := "scripts agree with sequential; patched trees equal targets"
	if !r.ScriptsAgree {
		verdict = fmt.Sprintf("MISMATCH on %d of %d file changes", r.Mismatches, r.Files)
	}
	return fmt.Sprintf(
		"engine replay: %d file changes, %d nodes\n"+
			"sequential: %v   engine: %v   speedup: %.2fx\n"+
			"%s\n%s",
		r.Files, r.Nodes,
		time.Duration(r.SequentialNS).Round(time.Millisecond),
		time.Duration(r.EngineNS).Round(time.Millisecond),
		r.Speedup, verdict, r.Snapshot,
	)
}
