package profiling

import (
	"os"
	"path/filepath"
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
