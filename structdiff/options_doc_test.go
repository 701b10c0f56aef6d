package structdiff_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestOptionsDocumented keeps docs/API.md's option table in sync with the
// package, in both directions: every top-level func With… of the
// package's non-test files that returns Option has a row in the table
// (a line starting "| `WithX("), and every such row names one of them.
func TestOptionsDocumented(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
					defined[fn.Name.Name] = true
				}
			}
		}
	}
	if len(defined) < 10 {
		t.Fatalf("found only %d options; the parse is not seeing the package", len(defined))
	}

	doc, err := os.ReadFile("../docs/API.md")
	if err != nil {
		t.Fatalf("read API.md: %v", err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(With\\w+)\\(").FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}

	var missing, stale []string
	for name := range defined {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !defined[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("option %s has no row in docs/API.md's option table", name)
	}
	for _, name := range stale {
		t.Errorf("docs/API.md's option table has a row for %s, which the package does not define", name)
	}
}
