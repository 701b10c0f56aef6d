package truechange

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// goldenScript covers every edit kind and the s, i, f (1.5, +0, 1e21) and
// b literals; goldenBytes is how the wire format 1.0 codec encoded it.
// Every script 1.0 could encode must keep these bytes.
var goldenScript = &Script{Edits: []Edit{
	Detach{Node: NodeRef{Tag: "Add", URI: 1}, Link: "e1", Parent: NodeRef{Tag: "Mul", URI: 2}},
	Unload{Node: NodeRef{Tag: "Num", URI: 8}, Lits: []LitArg{{Link: "f", Value: 1e21}}},
	Update{Node: NodeRef{Tag: "Num", URI: 7},
		Old: []LitArg{{Link: "f", Value: 1.5}, {Link: "b", Value: true}},
		New: []LitArg{{Link: "f", Value: 0.0}, {Link: "b", Value: false}}},
	Load{Node: NodeRef{Tag: "Let", URI: 3},
		Kids: []KidArg{{Link: "bound", URI: 4}, {Link: "body", URI: 5}},
		Lits: []LitArg{{Link: "s", Value: "name"}, {Link: "e", Value: ""}, {Link: "i", Value: int64(-7)}, {Link: "z", Value: int64(0)}}},
	Attach{Node: NodeRef{Tag: "Add", URI: 1}, Link: "e2", Parent: NodeRef{Tag: "Mul", URI: 2}},
}}

const goldenBytes = `[{"op":"detach","tag":"Add","uri":1,"link":"e1","ptag":"Mul","puri":2},{"op":"unload","tag":"Num","uri":8,"lits":[{"link":"f","kind":"f","f":1e+21}]},{"op":"update","tag":"Num","uri":7,"old":[{"link":"f","kind":"f","f":1.5},{"link":"b","kind":"b","b":true}],"new":[{"link":"f","kind":"f"},{"link":"b","kind":"b"}]},{"op":"load","tag":"Let","uri":3,"kids":[{"link":"bound","uri":4},{"link":"body","uri":5}],"lits":[{"link":"s","kind":"s","s":"name"},{"link":"e","kind":"s"},{"link":"i","kind":"i","i":-7},{"link":"z","kind":"i"}]},{"op":"attach","tag":"Add","uri":1,"link":"e2","ptag":"Mul","puri":2}]`

func TestCodecGoldenBytes(t *testing.T) {
	enc, err := json.Marshal(goldenScript)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != goldenBytes {
		t.Fatalf("encoding changed:\ngot:  %s\nwant: %s", enc, goldenBytes)
	}
	var back Script
	if err := json.Unmarshal([]byte(goldenBytes), &back); err != nil {
		t.Fatal(err)
	}
	if !EqualEdits(back.Edits, goldenScript.Edits) {
		t.Fatalf("golden bytes decode to another script:\n%s", back.String())
	}
}

// TestCodecSpecialFloats: −0 travels as "f":-0, and NaN and ±Inf as the
// hex of their bits under kind fbits; all come back bit for bit.
func TestCodecSpecialFloats(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		wire string
	}{
		{math.Copysign(0, -1), `{"link":"v","kind":"f","f":-0}`},
		{math.NaN(), `{"link":"v","kind":"fbits","bits":"7ff8000000000001"}`},
		{math.Inf(1), `{"link":"v","kind":"fbits","bits":"7ff0000000000000"}`},
		{math.Inf(-1), `{"link":"v","kind":"fbits","bits":"fff0000000000000"}`},
	} {
		s := &Script{Edits: []Edit{Update{Node: NodeRef{Tag: "F", URI: 1},
			Old: []LitArg{{Link: "v", Value: 1.0}}, New: []LitArg{{Link: "v", Value: tc.v}}}}}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%v: %v", tc.v, err)
		}
		if !strings.Contains(string(enc), tc.wire) {
			t.Errorf("%v encodes as %s, want it to contain %s", tc.v, enc, tc.wire)
		}
		var back Script
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%v: %v", tc.v, err)
		}
		if got := back.Edits[0].(Update).New[0].Value.(float64); math.Float64bits(got) != math.Float64bits(tc.v) {
			t.Errorf("%v came back with bits %x, want %x", tc.v, math.Float64bits(got), math.Float64bits(tc.v))
		}
	}
	var s Script
	if err := json.Unmarshal([]byte(`[{"op":"load","tag":"F","uri":1,"lits":[{"link":"v","kind":"fbits","bits":"nan"}]}]`), &s); err == nil {
		t.Error("malformed float bits should fail")
	}
}
