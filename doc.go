// Package repro is a from-scratch Go reproduction of "Concise, Type-Safe,
// and Efficient Structural Diffing" (Erdweg, Szabó, Pacak; PLDI 2021).
//
// The library lives under internal/: truechange (the linearly typed edit
// script language, §3), truediff (the diffing algorithm, §4), mtree (the
// standard semantics, §3.2), the gumtree/hdiff/lineardiff baselines, a
// Python-subset parser (pylang), a synthetic commit corpus (corpus), an
// incremental Datalog engine with the IncA driver (datalog, inca), and the
// evaluation harness (evaluation). See README.md for the tour, DESIGN.md
// for the system inventory, and EXPERIMENTS.md for paper-vs-measured
// results. cmd/evaluate regenerates every figure.
package repro
