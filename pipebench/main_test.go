package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny shrinks a workload so that one run takes about a second.
func tiny(name string) config {
	cfg := workloads[name]
	cfg.files, cfg.minNodes, cfg.maxNodes, cfg.changesPerFile = 4, 120, 240, 3
	cfg.setupReps, cfg.warmup, cfg.probe = 2, 2, 4
	return cfg
}

func runTiny(t *testing.T, cfg config, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(cfg, seed, 300*time.Millisecond, traced, "", io.Discard)
	if err != nil {
		t.Fatalf("%s, traced %v: %v", cfg.name, traced, err)
	}
	return res
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	listed := slices.Clone(names)
	slices.Sort(listed)
	if got := workloadNames(); !slices.Equal(got, listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res := runTiny(t, tiny(name), 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s, traced %v: correct %v, %d of %d changes failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s, traced %v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s, traced %v: no %s", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s, traced %v: %s in %s, BENCHMARK.json says %s", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s, traced %v: %s = %v", name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

func TestCountsRepeatExactly(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := runTiny(t, tiny(name), 3, false), runTiny(t, tiny(name), 3, false)
		if x, y := a.Metrics["edits_per_change"].Value, b.Metrics["edits_per_change"].Value; x != y || x == 0 {
			t.Errorf("%s: edits_per_change %v, then %v", name, x, y)
		}
	}
	a, b := runTiny(t, tiny("service"), 3, true), runTiny(t, tiny("service"), 3, true)
	if x, y := a.Metrics["diffserve.request_bytes_per_change"].Value, b.Metrics["diffserve.request_bytes_per_change"].Value; x != y || x == 0 {
		t.Errorf("request_bytes_per_change %v, then %v", x, y)
	}
	// Responses also carry diff timings and URIs the server assigns in
	// arrival order, whose digit counts vary slightly from run to run.
	if x, y := a.Metrics["diffserve.response_bytes_per_change"].Value, b.Metrics["diffserve.response_bytes_per_change"].Value; math.Abs(x-y) > 0.02*x || x == 0 {
		t.Errorf("response_bytes_per_change %v, then %v", x, y)
	}
}

func TestDroppedEditFailsTheRun(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := tiny(name)
		cfg.dropEdit = true
		cfg.warmup = 0 // a failing warm-up aborts the set-up instead
		res := runTiny(t, cfg, 1, false)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a script missing its last edit went unnoticed: correct %v, %d of %d failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
	}
}
