// Package jsonlang exposes the JSON tree language: a codec parsing JSON
// documents into schema-typed trees and rendering them back, so JSON
// documents can be diffed and patched through structdiff. It is the public
// face of internal/jsonlang.
package jsonlang

import (
	"repro/internal/jsonlang"
	"repro/internal/sig"
	"repro/internal/tree"
)

// Constructor tags of the JSON language.
const (
	TagObject = jsonlang.TagObject
)

// SortValue is the sort of every JSON value.
const SortValue = jsonlang.SortValue

// Schema returns the schema declaring the JSON language. Every call
// returns the same shared instance, which must not be declared into.
func Schema() *sig.Schema { return jsonlang.Schema() }

// Codec parses and renders JSON against one schema and allocator.
type Codec = jsonlang.Codec

// NewCodec returns a codec over the shared schema and a fresh allocator.
func NewCodec() *Codec { return jsonlang.NewCodec() }

// Render serializes a JSON tree back to JSON text.
func Render(n *tree.Node) string { return jsonlang.Render(n) }
