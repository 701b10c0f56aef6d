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
	// forced GC, so it shows live objects).
	MemProfile string
	// ExecTrace receives a runtime/trace execution trace covering
	// Start..stop.
	ExecTrace string
}

// Enabled reports whether any profiler is configured.
func (c Config) Enabled() bool {
	return c.CPUProfile != "" || c.MemProfile != "" || c.ExecTrace != ""
}

// Start launches the configured profilers and returns the stop function
// that finishes them and closes their files. On error nothing is left
// running. The returned stop is never nil and is safe to call exactly
// once; it reports the first failure of profile finalization.
func Start(c Config) (stop func() error, err error) {
	var stops []func() error
	abort := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}

	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			abort()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			abort()
			return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if c.ExecTrace != "" {
		f, err := os.Create(c.ExecTrace)
		if err != nil {
			abort()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			abort()
			return nil, fmt.Errorf("profiling: start execution trace: %w", err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	if c.MemProfile != "" {
		path := c.MemProfile
		stops = append(stops, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			cerr := f.Close()
			if werr != nil {
				return fmt.Errorf("profiling: write heap profile: %w", werr)
			}
			return cerr
		})
	}

	return func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}, nil
}
