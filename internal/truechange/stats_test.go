package truechange

import (
	"strings"
	"testing"
)

func TestComputeStats(t *testing.T) {
	cases := []struct {
		name   string
		script *Script
		want   Stats
	}{{
		name: "move, delete, insert, update",
		script: &Script{Edits: []Edit{
			Detach{Node: nref("Sub", 2), Link: "e1", Parent: nref("Add", 1)}, // moved
			Detach{Node: nref("Var", 3), Link: "e2", Parent: nref("Add", 1)}, // deleted
			Unload{Node: nref("Var", 3), Lits: []LitArg{{Link: "name", Value: "a"}}},
			Load{Node: nref("Num", 9), Lits: []LitArg{{Link: "n", Value: int64(1)}}},
			Attach{Node: nref("Sub", 2), Link: "e2", Parent: nref("Add", 1)},
			Attach{Node: nref("Num", 9), Link: "e1", Parent: nref("Add", 1)},
			Update{Node: nref("Var", 5), New: []LitArg{{Link: "name", Value: "z"}}},
		}},
		want: Stats{Detaches: 2, Attaches: 2, Loads: 1, Unloads: 1, Updates: 1, Moves: 1, Compound: 6},
	}, {
		// Two siblings swap slots: each is one detach/attach move.
		name: "swap",
		script: &Script{Edits: []Edit{
			Detach{Node: nref("Var", 8), Link: "bound", Parent: nref("Let", 10)},
			Detach{Node: nref("Num", 7), Link: "body", Parent: nref("Let", 10)},
			Attach{Node: nref("Num", 7), Link: "bound", Parent: nref("Let", 10)},
			Attach{Node: nref("Var", 8), Link: "body", Parent: nref("Let", 10)},
		}},
		want: Stats{Detaches: 2, Attaches: 2, Moves: 2, Compound: 4},
	}, {
		// Add#3 is deleted, releasing its kids: Num#2 is unloaded too,
		// and Num#1 is consumed by a load, which moves it.
		name: "unload releases, load consumes",
		script: &Script{Edits: []Edit{
			Detach{Node: nref("Add", 3), Link: "a", Parent: nref("Call", 20)},
			Unload{Node: nref("Add", 3), Kids: []KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 2}}},
			Unload{Node: nref("Num", 2), Lits: []LitArg{{Link: "n", Value: int64(2)}}},
			Load{Node: nref("Num", 6), Lits: []LitArg{{Link: "n", Value: int64(3)}}},
			Load{Node: nref("Sub", 4), Kids: []KidArg{{Link: "e1", URI: 1}, {Link: "e2", URI: 6}}},
			Attach{Node: nref("Sub", 4), Link: "a", Parent: nref("Call", 20)},
		}},
		want: Stats{Detaches: 1, Attaches: 1, Loads: 2, Unloads: 2, Moves: 1, Compound: 4},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ComputeStats(c.script); got != c.want {
				t.Errorf("ComputeStats = %+v, want %+v", got, c.want)
			}
			if got := c.script.EditCount(); got != c.want.Compound {
				t.Errorf("EditCount = %d, want %d", got, c.want.Compound)
			}
			// The engine computes the breakdown of every script it emits.
			if n := testing.AllocsPerRun(100, func() { ComputeStats(c.script) }); n != 0 {
				t.Errorf("ComputeStats allocates %v times per call, want 0", n)
			}
		})
	}

	out := ComputeStats(cases[0].script).String()
	for _, want := range []string{"1 moves", "1 updates", "compound"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats string lacks %q: %s", want, out)
		}
	}
	if ComputeStats(&Script{}).String() != "empty script" {
		t.Error("empty script string wrong")
	}
}
