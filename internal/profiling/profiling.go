// Package profiling starts and stops the standard Go profilers behind one
// call, so cmd/truediff and cmd/evaluate wire the -cpuprofile, -memprofile,
// and -exectrace flags identically.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files; empty fields disable the corresponding
// profiler.
type Config struct {
	// CPUProfile receives a pprof CPU profile covering Start..stop.
	CPUProfile string
	// MemProfile receives a heap profile taken at stop time (after a
	// forced GC, so it shows live objects). Start creates the file, so a
	// path that cannot be written fails before the run.
	MemProfile string
	// ExecTrace receives a runtime/trace execution trace covering
	// Start..stop.
	ExecTrace string
}

// Start launches the configured profilers and returns the stop function
// that finishes them and closes their files. It creates every configured
// file before it starts any profiler, so a path that cannot be created
// fails before the run. On error nothing is left running and no file this
// call created is left behind. The returned stop is never nil and is safe
// to call exactly once; it reports the first failure of profile
// finalization.
func Start(c Config) (stop func() error, err error) {
	var cpu, exec, mem *os.File
	var created []*os.File
	for _, out := range []struct {
		path string
		f    **os.File
	}{{c.CPUProfile, &cpu}, {c.ExecTrace, &exec}, {c.MemProfile, &mem}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			removeAll(created)
			return nil, fmt.Errorf("profiling: %w", err)
		}
		created = append(created, f)
		*out.f = f
	}

	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			removeAll(created)
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
	}
	if exec != nil {
		if err := trace.Start(exec); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
			}
			removeAll(created)
			return nil, fmt.Errorf("profiling: start execution trace: %w", err)
		}
	}

	return func() error {
		var errs []error
		if mem != nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(mem); err != nil {
				errs = append(errs, fmt.Errorf("profiling: write heap profile: %w", err))
			}
		}
		if exec != nil {
			trace.Stop()
		}
		if cpu != nil {
			pprof.StopCPUProfile()
		}
		for _, f := range created {
			if err := f.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}, nil
}

// removeAll closes and removes the files a failed Start created. It
// drops their errors: Start already returns the error it failed with.
func removeAll(files []*os.File) {
	for _, f := range files {
		_ = f.Close()
		_ = os.Remove(f.Name())
	}
}
