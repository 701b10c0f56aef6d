package telemetry

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FlightEntry is one retained diff record with its completion timestamp.
type FlightEntry struct {
	At time.Time `json:"at"`
	TraceRecord
}

// FlightRecorder retains a bounded in-memory view of recent diff activity
// for live inspection (the /debug/diffz endpoint of diffserve): a ring
// buffer of the last N completed diff records plus a slowest-K retention
// set, so a spike that scrolled out of the ring is still visible. Record
// is a short mutex section with no allocation beyond the retained copy;
// it is safe for concurrent use from engine workers. A nil recorder
// ignores Record, so wiring one in is unconditional.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []FlightEntry
	next  int
	count int
	total uint64
	slow  []FlightEntry // sorted by WallNS descending, len ≤ cap
}

// NewFlightRecorder returns a recorder keeping the last `recent` records
// and the `slowest` slowest-ever records. Non-positive sizes select the
// defaults (128 recent, 16 slowest).
func NewFlightRecorder(recent, slowest int) *FlightRecorder {
	if recent <= 0 {
		recent = 128
	}
	if slowest <= 0 {
		slowest = 16
	}
	return &FlightRecorder{
		ring: make([]FlightEntry, recent),
		slow: make([]FlightEntry, 0, slowest),
	}
}

// Record retains one completed diff record, stamped now.
func (f *FlightRecorder) Record(rec TraceRecord) {
	f.RecordAt(time.Now(), rec)
}

// RecordAt is Record with an explicit timestamp.
func (f *FlightRecorder) RecordAt(at time.Time, rec TraceRecord) {
	if f == nil {
		return
	}
	e := FlightEntry{At: at, TraceRecord: rec}
	f.mu.Lock()
	f.total++
	f.ring[f.next] = e
	f.next = (f.next + 1) % len(f.ring)
	if f.count < len(f.ring) {
		f.count++
	}
	// Insertion sort into the slowest-K set: K is small (default 16), so
	// a linear scan beats anything cleverer.
	if len(f.slow) < cap(f.slow) || e.WallNS > f.slow[len(f.slow)-1].WallNS {
		i := len(f.slow)
		if i < cap(f.slow) {
			f.slow = f.slow[:i+1]
		} else {
			i--
		}
		for i > 0 && f.slow[i-1].WallNS < e.WallNS {
			f.slow[i] = f.slow[i-1]
			i--
		}
		f.slow[i] = e
	}
	f.mu.Unlock()
}

// FlightSnapshot is a point-in-time copy of the recorder's retained state.
type FlightSnapshot struct {
	// Total counts every record ever seen (retained or not).
	Total uint64 `json:"total"`
	// Recent holds the ring's records, newest first.
	Recent []FlightEntry `json:"recent"`
	// Slowest holds the slowest-K records, slowest first.
	Slowest []FlightEntry `json:"slowest"`
}

// Snapshot copies the retained records. Nil-safe (zero snapshot).
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{Recent: []FlightEntry{}, Slowest: []FlightEntry{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FlightSnapshot{
		Total:   f.total,
		Recent:  make([]FlightEntry, 0, f.count),
		Slowest: make([]FlightEntry, len(f.slow)),
	}
	for i := 1; i <= f.count; i++ {
		s.Recent = append(s.Recent, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	copy(s.Slowest, f.slow)
	return s
}

// Handler serves the recorder's snapshot: JSON by default (curl-able and
// machine-checkable), HTML when the request asks for it with ?format=html
// or an Accept header preferring text/html (a browser). ?format=json
// forces JSON regardless of Accept.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := f.Snapshot()
		format := r.URL.Query().Get("format")
		wantHTML := format == "html" ||
			(format == "" && strings.Contains(r.Header.Get("Accept"), "text/html"))
		if !wantHTML {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(s)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeFlightHTML(w, s)
	})
}

func writeFlightHTML(w http.ResponseWriter, s FlightSnapshot) {
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>diffz</title><style>
body{font-family:monospace;margin:1.5em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:2px 8px;text-align:right}
th{background:#eee}td.l,th.l{text-align:left}h2{margin-top:1.5em}
</style></head><body><h1>flight recorder</h1><p>%d diffs recorded in total</p>`, s.Total)
	section := func(title string, entries []FlightEntry) {
		fmt.Fprintf(w, "<h2>%s (%d)</h2><table><tr>"+
			"<th class=l>at</th><th class=l>trace</th><th class=l>pair</th>"+
			"<th>nodes</th><th>edits</th><th>wall</th><th>prep</th><th>shares</th><th>select</th><th>emit</th>"+
			"<th>reuse</th>"+
			"<th class=l>flags</th></tr>", html.EscapeString(title), len(entries))
		for _, e := range entries {
			var flags []string
			if e.Identical {
				flags = append(flags, "identical")
			}
			if e.Fallback {
				flags = append(flags, "fallback")
			}
			if e.Err != "" {
				flags = append(flags, "err: "+e.Err)
			}
			fmt.Fprintf(w, "<tr><td class=l>%s</td><td class=l>%s</td><td class=l>%s</td>"+
				"<td>%d+%d</td><td>%d</td><td>%v</td><td>%v</td><td>%v</td><td>%v</td><td>%v</td>"+
				"<td>%.0f%%</td><td class=l>%s</td></tr>",
				html.EscapeString(e.At.Format(time.RFC3339Nano)),
				html.EscapeString(e.TraceID),
				html.EscapeString(e.Pair),
				e.SourceNodes, e.TargetNodes, e.Edits,
				time.Duration(e.WallNS).Round(time.Microsecond),
				time.Duration(e.PrepareNS).Round(time.Microsecond),
				time.Duration(e.SharesNS).Round(time.Microsecond),
				time.Duration(e.SelectNS).Round(time.Microsecond),
				time.Duration(e.EmitNS).Round(time.Microsecond),
				100*e.ReuseRatio,
				html.EscapeString(strings.Join(flags, ", ")))
		}
		fmt.Fprint(w, "</table>")
	}
	section("recent (newest first)", s.Recent)
	section("slowest", s.Slowest)
	fmt.Fprint(w, "</body></html>")
}
