package diffserve

import (
	"sort"

	"repro/internal/exp"
	"repro/internal/jsonlang"
	"repro/internal/pylang"
	"repro/internal/sig"
)

// langSchemas maps the language names the service accepts in requests to
// their shared schemas. Every entry gets its own engine (scratch pool and
// counters).
var langSchemas = map[string]func() *sig.Schema{
	"exp":      exp.Schema,
	"pylang":   pylang.Schema,
	"jsonlang": jsonlang.Schema,
}

// Languages lists the names the service can serve, sorted.
func Languages() []string {
	names := make([]string, 0, len(langSchemas))
	for name := range langSchemas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SchemaFor returns the schema for a registered language name, nil if the
// name is unknown.
func SchemaFor(lang string) *sig.Schema {
	f, ok := langSchemas[lang]
	if !ok {
		return nil
	}
	return f()
}
