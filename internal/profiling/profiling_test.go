package profiling

import (
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// TestMemProfileFailsFast pins that Start creates the heap-profile file:
// a path that cannot be created fails Start itself, before any run, and a
// good path exists from Start on and holds the profile once stop returns.
func TestMemProfileFailsFast(t *testing.T) {
	dir := t.TempDir()
	if _, err := Start(Config{MemProfile: filepath.Join(dir, "missing", "m.pprof")}); err == nil {
		t.Fatal("Start accepted a heap-profile path in a missing directory")
	}

	path := filepath.Join(dir, "m.pprof")
	stop, err := Start(Config{MemProfile: path})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("heap-profile file not created by Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written at stop: %v, %v", fi, err)
	}
}

// TestFailedStartLeavesNothing pins that a Start that fails leaves no
// profiler running and none of its files behind: when a later path cannot
// be created, the CPU profile's file is gone and no CPU profile runs; when
// a profiler cannot start after every file was created, every file is gone.
func TestFailedStartLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	gone := func(paths ...string) {
		t.Helper()
		for _, p := range paths {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("failed Start left %s behind (stat: %v)", filepath.Base(p), err)
			}
		}
	}

	if _, err := Start(Config{CPUProfile: cpu, ExecTrace: filepath.Join(dir, "missing", "t.trace")}); err == nil {
		t.Fatal("Start accepted an execution-trace path in a missing directory")
	}
	gone(cpu)
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("a CPU profile is still running after the failed Start: %v", err)
	}
	// CPU profiling is on now, so Start creates both files and then fails
	// to start its own CPU profile.
	_, err := Start(Config{CPUProfile: cpu, MemProfile: mem})
	pprof.StopCPUProfile()
	if err == nil {
		t.Fatal("Start started a second CPU profile")
	}
	gone(cpu, mem)
}
