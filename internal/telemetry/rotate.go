package telemetry

import (
	"fmt"
	"os"
	"sync"
)

// RotatingFile is an append-only file with size-based rotation, built for
// JSONL trace sinks on long-running daemons (cmd/diffd -trace with
// -trace-max-bytes): when an incoming write would push the current file
// past the limit, the file is renamed to <path>.1 (replacing any previous
// rotation) and a fresh <path> is opened. Writes are serialized by an
// internal mutex and records never split across files — each Write lands
// wholly in one file, which json.Encoder guarantees to pair with (one
// Write per record). At most max*2 bytes ever live on disk.
type RotatingFile struct {
	mu   sync.Mutex
	path string
	max  int64
	f    *os.File
	size int64
}

// OpenRotatingFile opens (creating or appending to) path with rotation at
// maxBytes. A non-positive maxBytes disables rotation: the file behaves
// like a plain O_APPEND open and only grows.
func OpenRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open rotating file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: stat rotating file: %w", err)
	}
	return &RotatingFile{path: path, max: maxBytes, f: f, size: st.Size()}, nil
}

// Write implements io.Writer. A write that would exceed the size limit
// rotates first, so files only exceed the limit when a single record is
// itself larger than it, or when a rotation failed: the record then lands
// in the current file, past the limit, and the next write tries again.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return 0, fmt.Errorf("telemetry: write to closed rotating file %s", r.path)
	}
	if r.max > 0 && r.size > 0 && r.size+int64(len(p)) > r.max {
		// A failed rotation keeps the current file in use and the next
		// write retries it; failing the write would stop a TraceWriter for
		// good, as its error is sticky.
		_ = r.rotateLocked()
	}
	n, err := r.f.Write(p)
	r.size += int64(n)
	return n, err
}

// rotateLocked moves the current file to <path>.1, opens a fresh <path>,
// and only then closes the old file, so no failure leaves the writer
// without an open file: until the fresh file is open, the current one
// stays in use under <path>. Called with the mutex held.
func (r *RotatingFile) rotateLocked() error {
	if err := os.Rename(r.path, r.path+".1"); err != nil {
		return fmt.Errorf("telemetry: rotate %s: %w", r.path, err)
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Give the current file its name back, so writes stay in <path>.
		_ = os.Rename(r.path+".1", r.path)
		return fmt.Errorf("telemetry: rotate %s: %w", r.path, err)
	}
	old := r.f
	r.f, r.size = f, 0
	if err := old.Close(); err != nil {
		return fmt.Errorf("telemetry: rotate %s: close the rotated file: %w", r.path, err)
	}
	return nil
}

// Close closes the underlying file. Later writes fail.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
