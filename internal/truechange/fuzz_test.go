package truechange

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzSeedScript is a script covering every edit kind and literal type, so
// the fuzzer starts from a structurally rich corpus entry.
func fuzzSeedScript() *Script {
	return &Script{Edits: []Edit{
		Detach{Node: NodeRef{Tag: "Add", URI: 1}, Link: "e1", Parent: NodeRef{Tag: "Mul", URI: 2}},
		Attach{Node: NodeRef{Tag: "Add", URI: 1}, Link: "e2", Parent: NodeRef{Tag: "Mul", URI: 2}},
		Load{Node: NodeRef{Tag: "Let", URI: 3},
			Kids: []KidArg{{Link: "bound", URI: 4}, {Link: "body", URI: 5}},
			Lits: []LitArg{{Link: "x", Value: "name"}}},
		Unload{Node: NodeRef{Tag: "Num", URI: 6}, Lits: []LitArg{{Link: "n", Value: int64(-7)}}},
		Update{Node: NodeRef{Tag: "Lit", URI: 7},
			Old: []LitArg{{Link: "f", Value: 1.5}, {Link: "b", Value: true}, {Link: "i", Value: int64(0)}},
			New: []LitArg{{Link: "f", Value: -2.25}, {Link: "b", Value: false}, {Link: "i", Value: int64(9)}}},
	}}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the script decoder and
// checks the codec invariants on everything it accepts:
//
//   - decode → encode → decode is a fixed point (the second decode yields
//     the same script, literals compared by bit pattern, and re-encoding
//     is byte-stable), and
//   - the codec never panics, whatever the input.
//
// Together these guarantee transmitted patches survive store-and-forward
// hops without drift (§1's transmission use case).
func FuzzCodecRoundTrip(f *testing.F) {
	seed, err := json.Marshal(fuzzSeedScript())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"op":"detach","tag":"A","uri":1,"link":"l","ptag":"B","puri":2}]`))
	f.Add([]byte(`[{"op":"load","tag":"A","uri":1,"lits":[{"link":"l","kind":"f","f":3.5}]}]`))
	f.Add([]byte(`[{"op":"update","tag":"A","uri":1,"old":[{"link":"l","kind":"b","b":true}]}]`))
	f.Add([]byte(`[{"op":"update","tag":"A","uri":1,"new":[{"link":"l","kind":"f","f":-0}]}]`))
	f.Add([]byte(`[{"op":"load","tag":"A","uri":1,"lits":[{"link":"l","kind":"fbits","bits":"7ff8000000000001"},{"link":"m","kind":"fbits","bits":"fff0000000000000"}]}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if err := json.Unmarshal(data, &s); err != nil {
			return // not a script; rejecting is the correct behaviour
		}
		enc, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("decoded script failed to re-encode: %v", err)
		}
		var s2 Script
		if err := json.Unmarshal(enc, &s2); err != nil {
			t.Fatalf("re-encoded script failed to decode: %v\nencoded: %s", err, enc)
		}
		if !EqualEdits(s.Edits, s2.Edits) {
			t.Fatalf("round trip changed the script:\nfirst:  %#v\nsecond: %#v", s.Edits, s2.Edits)
		}
		enc2, err := json.Marshal(&s2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not byte-stable:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}

// FuzzCheckEditNoPanic throws arbitrary decoded edits at the type checker:
// whatever the edit, CheckEdit must return (an error or nil), never panic,
// and must leave a nil-safe state behind.
func FuzzCheckEditNoPanic(f *testing.F) {
	seed, err := json.Marshal(fuzzSeedScript())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		sch := expSchema() // the type-checker test schema (typecheck_test.go)
		st := ClosedState()
		for _, e := range s.Edits {
			// Errors are expected on arbitrary edits; panics are not.
			_ = CheckEdit(sch, e, st)
		}
	})
}
