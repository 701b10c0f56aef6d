package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)

	recs := []TraceRecord{
		{Pair: "a.py#0", SourceNodes: 10, TargetNodes: 12, WallNS: 1500, Edits: 3},
		{Pair: "b.py#1", SourceNodes: 5, TargetNodes: 5, Identical: true},
		{SourceNodes: 1, TargetNodes: 1, Err: "schema mismatch"},
	}
	recs[0].SetPhases(PhaseTimes{100 * time.Nanosecond, 800 * time.Nanosecond, 300 * time.Nanosecond, 200 * time.Nanosecond})
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if tw.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tw.Count())
	}
	if tw.Err() != nil {
		t.Fatalf("Err = %v, want nil", tw.Err())
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var got TraceRecord
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if got != recs[i] {
			t.Errorf("line %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got, recs[i])
		}
	}
	// Phase fields made it into the JSON by their documented names.
	if !strings.Contains(lines[0], `"shares_ns":800`) {
		t.Errorf("missing shares_ns field: %s", lines[0])
	}
	// omitempty keeps the happy-path records free of error/identical noise.
	if strings.Contains(lines[0], "err") || strings.Contains(lines[0], "identical") {
		t.Errorf("zero-valued optional fields serialized: %s", lines[0])
	}
}

type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(&failAfter{n: 1})
	if err := tw.Write(TraceRecord{Pair: "ok"}); err != nil {
		t.Fatalf("first Write: %v", err)
	}
	if err := tw.Write(TraceRecord{Pair: "boom"}); err == nil {
		t.Fatal("second Write succeeded, want error")
	}
	if err := tw.Write(TraceRecord{Pair: "after"}); err == nil {
		t.Fatal("Write after error succeeded, want sticky error")
	}
	if tw.Err() == nil {
		t.Fatal("Err = nil, want sticky error")
	}
	if tw.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (failed writes not counted)", tw.Count())
	}
}

// TestTraceWriterConcurrent verifies the writer serializes concurrent
// writers into intact lines (run with -race).
func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	var wg sync.WaitGroup
	const goroutines, perG = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = tw.Write(TraceRecord{Pair: "p", SourceNodes: g, TargetNodes: i})
			}
		}(g)
	}
	wg.Wait()
	if tw.Count() != goroutines*perG {
		t.Fatalf("Count = %d, want %d", tw.Count(), goroutines*perG)
	}
	n := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("corrupt line %d: %v\n%s", n, err, sc.Text())
		}
		n++
	}
	if n != goroutines*perG {
		t.Fatalf("got %d lines, want %d", n, goroutines*perG)
	}
}
