package diffserve

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestMetricInventoryDocumented keeps docs/OBSERVABILITY.md's metric
// inventory in sync with the code, in both directions. Every metric the
// full service gathers — its own diffserve_* series, the per-language
// engine series, and a Client's counters — must appear in the document by
// name, so a new metric that lands without a doc entry fails here, not in
// a reader's grep. And every structdiff_* or diffserve_* name in a table
// row of the inventory must be gathered, so a deleted series cannot linger
// in the document. A row names a series by the part before any `{`; a
// name written as a prefix (`…_*`) must match at least one gathered series.
func TestMetricInventoryDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read OBSERVABILITY.md: %v", err)
	}
	text := string(doc)

	srv, hs := testServer(t, Config{Langs: []string{"exp"}, Workers: 2})
	gathered := map[string]bool{}
	for _, m := range append(srv.GatherMetrics(), NewClient(hs.URL, "exp", exp.Schema()).GatherMetrics()...) {
		gathered[m.Name] = true
	}
	if len(gathered) < 20 {
		t.Fatalf("gathered only %d distinct metrics; inventory sweep is not exercising the full surface", len(gathered))
	}

	// The SLO gauge family is documented as a prefixed set (it is detailed
	// in TRACING.md), so its shared prefix counts as documented.
	prefixes := []string{"diffserve_slo_"}
	documented := func(name string) bool {
		if strings.Contains(text, name) {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && strings.Contains(text, p) {
				return true
			}
		}
		return false
	}
	for name := range gathered {
		if !documented(name) {
			t.Errorf("metric %s is gathered but missing from docs/OBSERVABILITY.md", name)
		}
	}

	start := strings.Index(text, "### Metric inventory")
	if start < 0 {
		t.Fatal(`docs/OBSERVABILITY.md has no "### Metric inventory" section`)
	}
	inventory := text[start:]
	if end := strings.Index(inventory, "\n## "); end >= 0 {
		inventory = inventory[:end]
	}
	series := regexp.MustCompile(`\b(?:structdiff|diffserve)_[a-z0-9_]*\*?`)
	rows := 0
	for _, line := range strings.Split(inventory, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, name := range series.FindAllString(line, -1) {
			rows++
			if !isGathered(gathered, name) {
				t.Errorf("docs/OBSERVABILITY.md lists %s, which nothing gathers", name)
			}
		}
	}
	if rows < len(gathered)/2 {
		t.Fatalf("found only %d series names in the inventory's table rows", rows)
	}
}

// isGathered reports whether a documented series name is gathered: by
// exact name, or, for a prefix written as `…_*`, by at least one series.
func isGathered(gathered map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return gathered[name]
	}
	for g := range gathered {
		if strings.HasPrefix(g, prefix) {
			return true
		}
	}
	return false
}
