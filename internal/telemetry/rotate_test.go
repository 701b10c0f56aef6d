package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestRotatingFileNoLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rf, err := OpenRotatingFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := rf.Write([]byte("0123456789\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatalf("rotation happened with maxBytes=0: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 1100 {
		t.Fatalf("size = %d, want 1100", st.Size())
	}
}

func TestRotatingFileRollover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rf, err := OpenRotatingFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte("0123456789012345678901234\n") // 26 bytes
	for i := 0; i < 5; i++ {                     // 130 bytes total
		if _, err := rf.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	// Two 26-byte records fit under 64; the next write rotates. Verify
	// invariants rather than rotation choreography: only whole records on
	// disk, the current file under the limit, and at least the last
	// limit's worth of records surviving across current+rotated.
	checkWholeRecords := func(p string) int {
		t.Helper()
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b)%26 != 0 {
			t.Fatalf("%s holds a partial record: %d bytes", p, len(b))
		}
		return len(b) / 26
	}
	n := checkWholeRecords(path) + checkWholeRecords(path+".1")
	// The oldest rotation may have been replaced; at least the last 64
	// bytes' worth must survive, and nothing may be partial.
	if n < 3 || n > 5 {
		t.Fatalf("found %d whole records across current+rotated, want 3..5", n)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 64 {
		t.Fatalf("current file %d bytes exceeds limit 64", st.Size())
	}
}

func TestRotatingFileReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rf, err := OpenRotatingFile(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rf.Write([]byte("first\n"))
	rf.Close()
	rf, err = OpenRotatingFile(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rf.Write([]byte("second\n"))
	rf.Close()
	b, _ := os.ReadFile(path)
	if string(b) != "first\nsecond\n" {
		t.Fatalf("reopen did not append: %q", b)
	}
}

func TestRotatingFileClosedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rf, err := OpenRotatingFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	rf.Close()
	if _, err := rf.Write([]byte("x")); err == nil {
		t.Fatal("write after Close succeeded")
	}
	if err := rf.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestRotatingFileFailedRotationKeepsWriting: a rotation that cannot move
// the file, here because <path>.1 is a non-empty directory, leaves the
// current file open and in use. The record lands in <path>, past the
// limit; once the cause is gone, the next write rotates; and Close
// returns nil.
func TestRotatingFileFailedRotationKeepsWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.MkdirAll(filepath.Join(path+".1", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	rf, err := OpenRotatingFile(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"first-record\n", "second\n"} {
		if _, err := rf.Write([]byte(rec)); err != nil {
			t.Fatalf("write %q: %v", rec, err)
		}
	}
	if b, _ := os.ReadFile(path); string(b) != "first-record\nsecond\n" {
		t.Fatalf("after a failed rotation %s holds %q, want both records", path, b)
	}

	if err := os.RemoveAll(path + ".1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write([]byte("third\n")); err != nil {
		t.Fatalf("write after the cause is gone: %v", err)
	}
	if err := rf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if b, _ := os.ReadFile(path + ".1"); string(b) != "first-record\nsecond\n" {
		t.Errorf("rotated file holds %q, want the first two records", b)
	}
	if b, _ := os.ReadFile(path); string(b) != "third\n" {
		t.Errorf("fresh file holds %q, want the third record", b)
	}
}

// TestRotatingTraceWriterConcurrent drives a TraceWriter over a small
// RotatingFile from many goroutines (run under -race) and checks that
// every line in every file parses as one complete JSON record — rotation
// must never split a record.
func TestRotatingTraceWriterConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rf, err := OpenRotatingFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tw := NewTraceWriter(rf)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tw.Write(TraceRecord{
					Pair:        "w.py",
					TraceID:     "0123456789abcdef0123456789abcdef",
					SourceNodes: w,
					TargetNodes: i,
					WallNS:      int64(i),
				})
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Err(); err != nil {
		t.Fatalf("trace writer error: %v", err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, p := range []string{path, path + ".1"} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var rec TraceRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("%s: corrupt line %q: %v", p, sc.Text(), err)
			}
			lines++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if lines == 0 {
		t.Fatal("no records survived")
	}
	if tw.Count() != workers*per {
		t.Fatalf("writer count = %d, want %d", tw.Count(), workers*per)
	}
}
