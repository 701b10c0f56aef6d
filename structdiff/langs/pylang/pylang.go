// Package pylang exposes the Python-subset language of the paper's
// evaluation (§6): a lexer, parser, renderer, and schema for a useful
// slice of Python, producing trees diffable through structdiff. It is the
// public face of internal/pylang.
package pylang

import (
	"repro/internal/pylang"
	"repro/internal/sig"
	"repro/internal/tree"
	"repro/internal/uri"
)

// Schema returns the schema declaring the Python subset. Every call
// returns the same shared instance, which must not be declared into.
func Schema() *sig.Schema { return pylang.Schema() }

// Factory builds Python trees against one schema and allocator. It keeps
// its last parse, so that Parse reuses every unchanged statement, and is
// not safe for concurrent use.
type Factory = pylang.Factory

// NewFactory returns a factory over the shared schema and a fresh
// allocator.
func NewFactory() *Factory { return pylang.NewFactory() }

// NewFactoryWith returns a factory over an existing schema and allocator,
// so several sources share one URI space.
func NewFactoryWith(sch *sig.Schema, alloc *uri.Allocator) *Factory {
	return pylang.NewFactoryWith(sch, alloc)
}

// Parse parses Python source into a module tree using the factory. A
// statement whose text the factory's last parse already read is reused
// rather than parsed again; the result still equals a fresh parse and
// carries fresh URIs.
func Parse(src string, f *Factory) (*tree.Node, error) { return pylang.Parse(src, f) }

// ParseNew parses Python source with a fresh factory and returns both.
func ParseNew(src string) (*tree.Node, *Factory, error) { return pylang.ParseNew(src) }

// Render pretty-prints a module tree back to Python source.
func Render(mod *tree.Node) string { return pylang.Render(mod) }

// ListElems flattens one of the language's cons-list trees into a slice.
func ListElems(list *tree.Node) []*tree.Node { return pylang.ListElems(list) }

// LexError and ParseError report malformed source.
type (
	LexError   = pylang.LexError
	ParseError = pylang.ParseError
)
