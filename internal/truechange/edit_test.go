package truechange

import (
	"strings"
	"testing"

	"repro/internal/sig"
)

func TestBufferOrdersNegativeBeforePositive(t *testing.T) {
	b := NewBuffer()
	b.Add(Load{Node: nref("Var", 4)})
	b.Add(Detach{Node: nref("Var", 2), Link: "e1", Parent: nref("Add", 1)})
	b.Add(Attach{Node: nref("Var", 4), Link: "e1", Parent: nref("Add", 1)})
	b.Add(Unload{Node: nref("Var", 2)})
	if b.Len() != 4 {
		t.Fatalf("Len = %d", b.Len())
	}
	s := b.Script()
	kinds := make([]bool, len(s.Edits))
	for i, e := range s.Edits {
		kinds[i] = e.Negative()
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("edit %d polarity = %v, script:\n%s", i, kinds[i], s)
		}
	}
	// Relative order within halves is preserved.
	if _, ok := s.Edits[0].(Detach); !ok {
		t.Errorf("first negative should be the Detach: %s", s.Edits[0])
	}
	if _, ok := s.Edits[2].(Load); !ok {
		t.Errorf("first positive should be the Load: %s", s.Edits[2])
	}
}

func TestEditPolarity(t *testing.T) {
	if !(Detach{}).Negative() || !(Unload{}).Negative() {
		t.Error("detach/unload should be negative")
	}
	if (Attach{}).Negative() || (Load{}).Negative() || (Update{}).Negative() {
		t.Error("attach/load/update should be positive")
	}
}

func TestEditCountCompoundsInsAndDel(t *testing.T) {
	// A replacement of one leaf: detach+unload (compound del) then
	// load+attach (compound ins) counts as 2 edits, like Gumtree's Del+Ins.
	s := &Script{Edits: []Edit{
		Detach{Node: nref("Var", 2), Link: "e1", Parent: nref("Add", 1)},
		Unload{Node: nref("Var", 2), Lits: []LitArg{{Link: "name", Value: "a"}}},
		Load{Node: nref("Var", 4), Lits: []LitArg{{Link: "name", Value: "b"}}},
		Attach{Node: nref("Var", 4), Link: "e1", Parent: nref("Add", 1)},
	}}
	if got := s.EditCount(); got != 2 {
		t.Errorf("EditCount = %d, want 2", got)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}

	// A move (detach+attach of the same node) is 2 edits: the pair does
	// not compound because the attach does not follow a load.
	move := &Script{Edits: []Edit{
		Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)},
		Attach{Node: nref("Sub", 2), Link: "e2", Parent: nref("Mul", 5)},
	}}
	if got := move.EditCount(); got != 2 {
		t.Errorf("move EditCount = %d, want 2", got)
	}

	// Unload of a different node right after a detach does not compound.
	mixed := &Script{Edits: []Edit{
		Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)},
		Unload{Node: nref("Var", 3)},
		Update{Node: nref("Var", 9), New: []LitArg{{Link: "name", Value: "z"}}},
	}}
	if got := mixed.EditCount(); got != 3 {
		t.Errorf("mixed EditCount = %d, want 3", got)
	}

	if (&Script{}).EditCount() != 0 {
		t.Error("empty script should count 0")
	}
}

func TestScriptStringMentionsAllEdits(t *testing.T) {
	s := &Script{Edits: []Edit{
		Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)},
		Load{Node: nref("Num", 4), Lits: []LitArg{{Link: "n", Value: int64(7)}}},
		Unload{Node: nref("Var", 3), Lits: []LitArg{{Link: "name", Value: "a"}}},
		Attach{Node: nref("Num", 4), Link: "e1", Parent: nref("Add", 1)},
		Update{Node: nref("Var", 9),
			Old: []LitArg{{Link: "name", Value: "b"}},
			New: []LitArg{{Link: "name", Value: "c"}}},
	}}
	out := s.String()
	for _, want := range []string{"detach(", "attach(", "load(", "unload(", "update(", "#1", "#4", `"e1"`, "7", `"c"`} {
		if !strings.Contains(out, want) {
			t.Errorf("script rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestNodeRefString(t *testing.T) {
	if got := nref("Add", 1).String(); got != "Add#1" {
		t.Errorf("NodeRef string = %q", got)
	}
	if got := RootRef.String(); !strings.Contains(got, "#root") {
		t.Errorf("root ref = %q", got)
	}
	if RootRef.Tag != sig.RootTag {
		t.Error("RootRef should carry the root tag")
	}
}

func TestConcat(t *testing.T) {
	a := &Script{Edits: []Edit{Update{Node: nref("Var", 1)}}}
	b := &Script{Edits: []Edit{Update{Node: nref("Var", 2)}, Update{Node: nref("Var", 3)}}}
	c := Concat(a, b)
	if c.Len() != 3 {
		t.Fatalf("Concat length = %d", c.Len())
	}
	if c.Edits[0].(Update).Node.URI != 1 || c.Edits[2].(Update).Node.URI != 3 {
		t.Error("Concat order wrong")
	}
	if !(&Script{}).IsEmpty() || c.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}
