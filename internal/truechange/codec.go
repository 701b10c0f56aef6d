package truechange

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/sig"
	"repro/internal/uri"
)

// This file implements a JSON wire format for edit scripts, supporting the
// transmission use case of paper §1 ("any subsequent transmission or
// processing of the patch"): because truechange patches only mention
// changed nodes, the serialized patch stays proportional to the change.
//
// Literal values survive the round trip with their types and bits: int64
// and float64 are distinguished by a type tag, since encoding/json would
// otherwise decode both as float64. A float travels as a JSON number,
// −0 included ("f":-0), and NaN or ±Inf, which JSON numbers cannot
// express, as the hex of its IEEE 754 bits under kind "fbits".

// wireEdit is the serialized form of one edit.
type wireEdit struct {
	Op   string    `json:"op"`
	Tag  string    `json:"tag"`
	URI  uint64    `json:"uri"`
	Link string    `json:"link,omitempty"`
	PTag string    `json:"ptag,omitempty"`
	PURI uint64    `json:"puri,omitempty"`
	Kids []wireKid `json:"kids,omitempty"`
	Lits []wireLit `json:"lits,omitempty"`
	Old  []wireLit `json:"old,omitempty"`
	New  []wireLit `json:"new,omitempty"`
}

type wireKid struct {
	Link string `json:"link"`
	URI  uint64 `json:"uri"`
}

type wireLit struct {
	Link string `json:"link"`
	Kind string `json:"kind"` // s | i | f | b | fbits
	S    string `json:"s,omitempty"`
	I    int64  `json:"i,omitempty"`
	// F is nil only for +0, so −0 keeps its sign on the wire.
	F    *float64 `json:"f,omitempty"`
	B    bool     `json:"b,omitempty"`
	Bits string   `json:"bits,omitempty"`
}

func toWireLit(l LitArg) (wireLit, error) {
	w := wireLit{Link: string(l.Link)}
	switch v := l.Value.(type) {
	case string:
		w.Kind, w.S = "s", v
	case int64:
		w.Kind, w.I = "i", v
	case float64:
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			w.Kind, w.Bits = "fbits", strconv.FormatUint(math.Float64bits(v), 16)
		case math.Float64bits(v) == 0:
			w.Kind = "f"
		default:
			w.Kind, w.F = "f", &v
		}
	case bool:
		w.Kind, w.B = "b", v
	default:
		return w, fmt.Errorf("truechange: unsupported literal type %T", l.Value)
	}
	return w, nil
}

func fromWireLit(w wireLit) (LitArg, error) {
	l := LitArg{Link: sig.Link(w.Link)}
	switch w.Kind {
	case "s":
		l.Value = w.S
	case "i":
		l.Value = w.I
	case "f":
		l.Value = 0.0
		if w.F != nil {
			l.Value = *w.F
		}
	case "fbits":
		bits, err := strconv.ParseUint(w.Bits, 16, 64)
		if err != nil {
			return l, fmt.Errorf("truechange: malformed float bits %q", w.Bits)
		}
		l.Value = math.Float64frombits(bits)
	case "b":
		l.Value = w.B
	default:
		return l, fmt.Errorf("truechange: unknown literal kind %q", w.Kind)
	}
	return l, nil
}

func toWireLits(ls []LitArg) ([]wireLit, error) {
	if len(ls) == 0 {
		return nil, nil
	}
	out := make([]wireLit, len(ls))
	for i, l := range ls {
		w, err := toWireLit(l)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func fromWireLits(ws []wireLit) ([]LitArg, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]LitArg, len(ws))
	for i, w := range ws {
		l, err := fromWireLit(w)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

func toWireKids(ks []KidArg) []wireKid {
	if len(ks) == 0 {
		return nil
	}
	out := make([]wireKid, len(ks))
	for i, k := range ks {
		out[i] = wireKid{Link: string(k.Link), URI: uint64(k.URI)}
	}
	return out
}

func fromWireKids(ws []wireKid) []KidArg {
	if len(ws) == 0 {
		return nil
	}
	out := make([]KidArg, len(ws))
	for i, w := range ws {
		out[i] = KidArg{Link: sig.Link(w.Link), URI: uri.URI(w.URI)}
	}
	return out
}

// MarshalJSON serializes the script as an array of edit objects.
func (s *Script) MarshalJSON() ([]byte, error) {
	wire := make([]wireEdit, 0, len(s.Edits))
	for _, e := range s.Edits {
		var w wireEdit
		var err error
		switch ed := e.(type) {
		case Detach:
			w = wireEdit{Op: "detach", Tag: string(ed.Node.Tag), URI: uint64(ed.Node.URI),
				Link: string(ed.Link), PTag: string(ed.Parent.Tag), PURI: uint64(ed.Parent.URI)}
		case Attach:
			w = wireEdit{Op: "attach", Tag: string(ed.Node.Tag), URI: uint64(ed.Node.URI),
				Link: string(ed.Link), PTag: string(ed.Parent.Tag), PURI: uint64(ed.Parent.URI)}
		case Load:
			w = wireEdit{Op: "load", Tag: string(ed.Node.Tag), URI: uint64(ed.Node.URI),
				Kids: toWireKids(ed.Kids)}
			w.Lits, err = toWireLits(ed.Lits)
		case Unload:
			w = wireEdit{Op: "unload", Tag: string(ed.Node.Tag), URI: uint64(ed.Node.URI),
				Kids: toWireKids(ed.Kids)}
			w.Lits, err = toWireLits(ed.Lits)
		case Update:
			w = wireEdit{Op: "update", Tag: string(ed.Node.Tag), URI: uint64(ed.Node.URI)}
			if w.Old, err = toWireLits(ed.Old); err == nil {
				w.New, err = toWireLits(ed.New)
			}
		default:
			err = fmt.Errorf("truechange: cannot serialize edit %T", e)
		}
		if err != nil {
			return nil, err
		}
		wire = append(wire, w)
	}
	return json.Marshal(wire)
}

// UnmarshalJSON deserializes a script produced by MarshalJSON.
func (s *Script) UnmarshalJSON(data []byte) error {
	var wire []wireEdit
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	s.Edits = make([]Edit, 0, len(wire))
	for _, w := range wire {
		node := NodeRef{Tag: sig.Tag(w.Tag), URI: uri.URI(w.URI)}
		parent := NodeRef{Tag: sig.Tag(w.PTag), URI: uri.URI(w.PURI)}
		switch w.Op {
		case "detach":
			s.Edits = append(s.Edits, Detach{Node: node, Link: sig.Link(w.Link), Parent: parent})
		case "attach":
			s.Edits = append(s.Edits, Attach{Node: node, Link: sig.Link(w.Link), Parent: parent})
		case "load":
			lits, err := fromWireLits(w.Lits)
			if err != nil {
				return err
			}
			s.Edits = append(s.Edits, Load{Node: node, Kids: fromWireKids(w.Kids), Lits: lits})
		case "unload":
			lits, err := fromWireLits(w.Lits)
			if err != nil {
				return err
			}
			s.Edits = append(s.Edits, Unload{Node: node, Kids: fromWireKids(w.Kids), Lits: lits})
		case "update":
			old, err := fromWireLits(w.Old)
			if err != nil {
				return err
			}
			now, err := fromWireLits(w.New)
			if err != nil {
				return err
			}
			s.Edits = append(s.Edits, Update{Node: node, Old: old, New: now})
		default:
			return fmt.Errorf("truechange: unknown edit op %q", w.Op)
		}
	}
	return nil
}
