package tree

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sig"
	"repro/internal/uri"
)

// goldenSchema declares one tag per literal type plus nodes with 0, 1, 3 and
// 4 kids, so the golden trees exercise every part of both digest messages.
func goldenSchema() *sig.Schema {
	s := sig.NewSchema("golden")
	s.MustDeclare(sig.Sig{Tag: "Str", Lits: []sig.LitSpec{{Link: "s", Type: sig.StringLit}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Int", Lits: []sig.LitSpec{{Link: "i", Type: sig.IntLit}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Bool", Lits: []sig.LitSpec{{Link: "b", Type: sig.BoolLit}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Float", Lits: []sig.LitSpec{{Link: "f", Type: sig.FloatLit}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Nil", Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Wrap", Kids: []sig.KidSpec{{Link: "e", Sort: "E"}},
		Lits: []sig.LitSpec{{Link: "label", Type: sig.StringLit}, {Link: "n", Type: sig.IntLit}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Tri", Kids: []sig.KidSpec{{Link: "a", Sort: "E"}, {Link: "b", Sort: "E"}, {Link: "c", Sort: "E"}}, Result: "E"})
	s.MustDeclare(sig.Sig{Tag: "Quad",
		Kids: []sig.KidSpec{{Link: "a", Sort: "E"}, {Link: "b", Sort: "E"}, {Link: "c", Sort: "E"}, {Link: "d", Sort: "E"}},
		Lits: []sig.LitSpec{{Link: "ok", Type: sig.BoolLit}, {Link: "x", Type: sig.FloatLit}}, Result: "E"})
	return s
}

var negZero = math.Copysign(0, -1)

// goldenTrees builds each golden tree with b.
var goldenTrees = []struct {
	name  string
	build func(b *Builder) *Node
}{
	{"str-empty", func(b *Builder) *Node { return b.MustN("Str", "") }},
	{"str-utf8", func(b *Builder) *Node { return b.MustN("Str", "héllo\x00\"") }},
	{"int-neg", func(b *Builder) *Node { return b.MustN("Int", int64(-42)) }},
	{"int-min", func(b *Builder) *Node { return b.MustN("Int", int64(math.MinInt64)) }},
	{"bool-true", func(b *Builder) *Node { return b.MustN("Bool", true) }},
	{"bool-false", func(b *Builder) *Node { return b.MustN("Bool", false) }},
	{"float-nan", func(b *Builder) *Node { return b.MustN("Float", math.NaN()) }},
	{"float-neg0", func(b *Builder) *Node { return b.MustN("Float", negZero) }},
	{"float-pos0", func(b *Builder) *Node { return b.MustN("Float", 0.0) }},
	{"float-inf", func(b *Builder) *Node { return b.MustN("Float", math.Inf(1)) }},
	{"float-1.5", func(b *Builder) *Node { return b.MustN("Float", 1.5) }},
	{"nil", func(b *Builder) *Node { return b.MustN("Nil") }},
	{"wrap", func(b *Builder) *Node { return b.MustN("Wrap", b.MustN("Int", int64(7)), "w", int64(3)) }},
	{"tri", func(b *Builder) *Node {
		return b.MustN("Tri", b.MustN("Str", "a"), b.MustN("Wrap", b.MustN("Nil"), "x", int64(0)),
			b.MustN("Tri", b.MustN("Float", math.NaN()), b.MustN("Float", negZero), b.MustN("Bool", true)))
	}},
	{"quad", func(b *Builder) *Node {
		return b.MustN("Quad", b.MustN("Nil"), b.MustN("Int", int64(1)), b.MustN("Str", "q"), b.MustN("Bool", false), true, -2.25)
	}},
}

// goldenDigests pins the hex of each golden tree's structure and literal
// digests. diffserve names trees by these bytes, so a server and a client
// built from different versions agree on refs only while the hashed
// message layout stays fixed.
var goldenDigests = map[HashKind]map[string][2]string{
	SHA256: {
		"str-empty":  {"c450dac4d3584093cd750ae9ff42ea994591241db0891a875e8a3140ebb69c99", "76ca65fa532efea2d73e4cb2775f96cfb650d5c8c9dbb78594a01f4cf8bb3bfe"},
		"str-utf8":   {"c450dac4d3584093cd750ae9ff42ea994591241db0891a875e8a3140ebb69c99", "51463ee2fab3e327955bad5809d2e6a4d85352d9f67e0f99afec736a721b8b92"},
		"int-neg":    {"9c129869e33282109c4d286874eda860490962ea741e8cb82fb396f3fae2ad82", "ba39c2377e77bff71acc9dfa1b6bd74da3fc7884304dfd943b7d8c10708d672d"},
		"int-min":    {"9c129869e33282109c4d286874eda860490962ea741e8cb82fb396f3fae2ad82", "89217756f8501143c0dd1659fbea9e91d087d94e7e9fc40479302600ff6e3c39"},
		"bool-true":  {"1d9ff40371a9fdb6d42f79930d874670a84739c2f05926ede28b4c960242979f", "106f212a9c4fe80b0362a3c683a88c3e183e2a2de849c299b1624a18942e7eda"},
		"bool-false": {"1d9ff40371a9fdb6d42f79930d874670a84739c2f05926ede28b4c960242979f", "899b80c8dc11d5c2a65d67a4c3b6f3bebd2a1e990a9f79ac3d3c380533bb7c08"},
		"float-nan":  {"0f8ee0a65eb3b8e1da514c6bc58763cd4450f6c128605b85ef21ac03395c5ce5", "72142c536d030d6d1f611960a7f398d9b673f7b86a3d81257940b12820d4cccd"},
		"float-neg0": {"0f8ee0a65eb3b8e1da514c6bc58763cd4450f6c128605b85ef21ac03395c5ce5", "cc456bd05fe76b51e4fdefc2d6abd88943c4a5fab066b754967abe30b5fd753c"},
		"float-pos0": {"0f8ee0a65eb3b8e1da514c6bc58763cd4450f6c128605b85ef21ac03395c5ce5", "f655b54c1c587ebf4312989497fd01048213bceaf8ebd51c9dd10319c4c2cdf8"},
		"float-inf":  {"0f8ee0a65eb3b8e1da514c6bc58763cd4450f6c128605b85ef21ac03395c5ce5", "4b51b51e33c74ceaacb08983fed2e94412a7b961f3a26ee855c289ee8b999878"},
		"float-1.5":  {"0f8ee0a65eb3b8e1da514c6bc58763cd4450f6c128605b85ef21ac03395c5ce5", "586bae06ef42a1345d4cbfed655a2cf83fe61b70679d89235f309b4134ed4d16"},
		"nil":        {"a73bc50ab10af9a1c4cbe7328bb920ce1c14618ef00346f8e14be7f279ed2cd3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		"wrap":       {"3c35444f65db97607b7726e2c518e5b2d34a6439f817a74eac2ff336b88d3233", "e1c34d1c23f32cdfabcf33fb9a537c92f4ec2f7462086e95229a7d048b361898"},
		"tri":        {"c3abf759509249b3d7cf9a143071fc2f842c54faf36b488fee58eae78eb18783", "f823060088fc97b11e2cdc94c21decc612a7fb63f18b99e08a6a6f2df727d568"},
		"quad":       {"852dce616be371330ea59f5feb6661f3bd6513b8229cf9a8fcb349910cda948b", "e0610e18a3dfada365ad682292bc27182a8d2d3948ee8d238648b210469d437b"},
	},
	FNV64: {
		"str-empty":  {"e9269435d31d3e52", "6243399623d95e1d"},
		"str-utf8":   {"e9269435d31d3e52", "a544044fe1d09343"},
		"int-neg":    {"87ab7216d339471c", "2528107ee0b86007"},
		"int-min":    {"87ab7216d339471c", "24cd2ac87b03375b"},
		"bool-true":  {"218a509a556da1e7", "248e35d69e11295b"},
		"bool-false": {"218a509a556da1e7", "45d824e1a7d8237a"},
		"float-nan":  {"7a99d5b732c7df65", "ed980b8628ab2710"},
		"float-neg0": {"7a99d5b732c7df65", "7926b88e31037a2c"},
		"float-pos0": {"7a99d5b732c7df65", "f9ffb88e31837a2c"},
		"float-inf":  {"7a99d5b732c7df65", "0494a08f31bc8a2d"},
		"float-1.5":  {"7a99d5b732c7df65", "fceeb68f317ca52d"},
		"nil":        {"fdac69f3d206d5de", "25232284e49cf2cb"},
		"wrap":       {"bc63bf3c192b9820", "06ad68083bb9f0db"},
		"tri":        {"84680bdba85e33fa", "07f69a8f4a257c44"},
		"quad":       {"7e4e218b36ccc832", "be16703755a57e7c"},
	},
}

// splitHex returns the hex of n's structure and literal digests.
func splitHex(n *Node) [2]string {
	h := hex.EncodeToString(n.AppendExactHash(nil))
	return [2]string{h[:len(h)/2], h[len(h)/2:]}
}

func TestGoldenDigests(t *testing.T) {
	for _, kind := range []HashKind{SHA256, FNV64} {
		for _, g := range goldenTrees {
			b := NewBuilderHashed(goldenSchema(), uri.NewAllocator(), kind)
			n := g.build(b)
			want := goldenDigests[kind][g.name]
			if got := splitHex(n); got != want {
				t.Errorf("kind %d, %s: digests = %v, want %v", kind, g.name, got, want)
			}
			if got := splitHex(Clone(n, uri.NewAllocator(), kind)); got != want {
				t.Errorf("kind %d, %s: Clone digests = %v, want %v", kind, g.name, got, want)
			}
			// The value digests hold the same bytes, zero-padded for FNV-64.
			var sd, ld Digest
			hs, _ := hex.DecodeString(want[0])
			hl, _ := hex.DecodeString(want[1])
			copy(sd[:], hs)
			copy(ld[:], hl)
			if n.ExactHash() != (ExactKey{sd, ld}) {
				t.Errorf("kind %d, %s: ExactHash disagrees with the golden bytes", kind, g.name)
			}
		}
	}
}

// genTree builds a pseudo-random expression tree of exactly size nodes
// (size odd) over testSchema.
func genTree(b *Builder, rng *rand.Rand, size int) *Node {
	if size <= 1 {
		if rng.Intn(2) == 0 {
			return b.MustN("Num", int64(rng.Intn(100)))
		}
		return b.MustN("Var", string(rune('a'+rng.Intn(26))))
	}
	left := 1 + 2*rng.Intn((size-1)/2)
	tag := sig.Tag("Add")
	if rng.Intn(2) == 0 {
		tag = "Sub"
	}
	return b.MustN(tag, genTree(b, rng, left), genTree(b, rng, size-1-left))
}

// TestCloneAllocations guards the per-node cost of step 1: rehashing a
// tree allocates only each node and its kid and literal slices, never
// hasher state.
func TestCloneAllocations(t *testing.T) {
	const size = 1001
	src := genTree(newB(t), rand.New(rand.NewSource(1)), size)
	if src.Size() != size {
		t.Fatalf("generated %d nodes, want %d", src.Size(), size)
	}
	for _, kind := range []HashKind{SHA256, FNV64} {
		alloc := uri.NewAllocator()
		perNode := testing.AllocsPerRun(20, func() { Clone(src, alloc, kind) }) / size
		if perNode > 3 {
			t.Errorf("kind %d: Clone allocates %.2f times per node, want at most 3", kind, perNode)
		}
	}
}

// TestCloneKeepDigests pins the arena copy: two allocations per call
// whatever the size, URIs in post-order, and digests, schema records and
// literal slices carried over from the original.
func TestCloneKeepDigests(t *testing.T) {
	const size = 1001
	src := genTree(newB(t), rand.New(rand.NewSource(3)), size)
	alloc := uri.NewAllocator()
	alloc.Reserve(5000)
	if n := testing.AllocsPerRun(20, func() { CloneKeepDigests(src, alloc) }); n > 2 {
		t.Errorf("CloneKeepDigests allocates %.0f times per call, want at most 2", n)
	}
	base := alloc.Peek()
	c := CloneKeepDigests(src, alloc)
	var orig, copies []*Node
	WalkPost(src, func(n *Node) { orig = append(orig, n) })
	WalkPost(c, func(n *Node) { copies = append(copies, n) })
	if len(copies) != size {
		t.Fatalf("copy has %d nodes, want %d", len(copies), size)
	}
	for i, m := range copies {
		n := orig[i]
		if m == n || m.URI != base+uri.URI(i+1) {
			t.Fatalf("post-order node %d: URI %s, want fresh %s", i, m.URI, base+uri.URI(i+1))
		}
		if m.Tag != n.Tag || len(m.Kids) != len(n.Kids) || len(m.Lits) != len(n.Lits) {
			t.Fatalf("post-order node %d: %s copied as %s", i, n, m)
		}
		if m.ExactHash() != n.ExactHash() || !HashedWith(m, n.HashKind()) || m.Schema() != n.Schema() ||
			m.Size() != n.Size() || m.Height() != n.Height() {
			t.Fatalf("post-order node %d: digests, schema record or shape not kept", i)
		}
		if len(n.Lits) > 0 && &m.Lits[0] != &n.Lits[0] {
			t.Fatalf("post-order node %d: literal slice copied, want it shared", i)
		}
	}
	if !Equal(c, src) {
		t.Error("copy differs from the original")
	}

	// A hand-assembled tree records no size; its nodes overflow the arenas.
	leaf := &Node{Tag: "Num", Lits: []any{int64(1)}}
	hand := &Node{Tag: "Add", Kids: []*Node{leaf, leaf}}
	hc := CloneKeepDigests(hand, alloc)
	if hc.Kids[0] == hc.Kids[1] || hc.Kids[0] == leaf || hc.Kids[1].Lits[0] != int64(1) {
		t.Error("copy of a hand-assembled tree is not a tree of fresh nodes")
	}
}

// TestCloneKeepDigestsMatchesClone checks the copy differentially: under
// either hash kind it is, node by node, what Clone makes with that kind from
// an allocator in the same state. Two trees share one allocator, as the
// source and target of a pair do.
func TestCloneKeepDigestsMatchesClone(t *testing.T) {
	trees := []*Node{
		genTree(newB(t), rand.New(rand.NewSource(3)), 1001),
		genTree(newB(t), rand.New(rand.NewSource(4)), 301),
	}
	for _, kind := range []HashKind{SHA256, FNV64} {
		keep, ref := uri.NewAllocator(), uri.NewAllocator()
		for i, orig := range trees {
			in := Clone(orig, uri.NewAllocator(), kind)
			if msg := nodeMismatch(CloneKeepDigests(in, keep), Clone(in, ref, kind)); msg != "" {
				t.Fatalf("hash kind %d, tree %d: %s", kind, i, msg)
			}
		}
	}
}

// nodeMismatch walks got and want in lockstep and describes the first node
// whose tag, URI, literals, kid count, size, height, or digests differ, or
// returns "" when the trees agree everywhere.
func nodeMismatch(got, want *Node) string {
	switch {
	case got.Tag != want.Tag:
		return fmt.Sprintf("tag %s, want %s", got.Tag, want.Tag)
	case got.URI != want.URI:
		return fmt.Sprintf("%s: URI %d, want %d", want.Tag, got.URI, want.URI)
	case len(got.Lits) != len(want.Lits) || len(got.Kids) != len(want.Kids):
		return fmt.Sprintf("%s#%d: arity differs", want.Tag, want.URI)
	case got.Size() != want.Size() || got.Height() != want.Height():
		return fmt.Sprintf("%s#%d: size/height %d/%d, want %d/%d",
			want.Tag, want.URI, got.Size(), got.Height(), want.Size(), want.Height())
	case got.HashKind() != want.HashKind() || got.StructHash() != want.StructHash() || got.LitHash() != want.LitHash():
		return fmt.Sprintf("%s#%d: digests differ", want.Tag, want.URI)
	}
	for i := range want.Lits {
		if !LitEqual(got.Lits[i], want.Lits[i]) {
			return fmt.Sprintf("%s#%d: literal %d is %v, want %v", want.Tag, want.URI, i, got.Lits[i], want.Lits[i])
		}
	}
	for i := range want.Kids {
		if msg := nodeMismatch(got.Kids[i], want.Kids[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// TestConcurrentConstruction builds the same trees on 8 goroutines, as
// diffd's handlers decode requests concurrently, and requires every digest
// to match a sequential build: the pooled hasher state is never shared.
func TestConcurrentConstruction(t *testing.T) {
	sch := testSchema()
	src := genTree(NewBuilder(sch, uri.NewAllocator()), rand.New(rand.NewSource(7)), 801)
	text := EncodeSExpr(src)
	digests := func(n *Node) []ExactKey {
		var out []ExactKey
		WalkPost(n, func(m *Node) { out = append(out, m.ExactHash()) })
		return out
	}
	build := func() [][]ExactKey {
		dec, err := DecodeSExpr(text, sch, uri.NewAllocator())
		if err != nil {
			t.Error(err)
			return nil
		}
		return [][]ExactKey{digests(dec), digests(Clone(src, uri.NewAllocator(), FNV64))}
	}
	want := build()
	const workers = 8
	got := make([][][]ExactKey, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got[w] = build()
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range want {
			if len(got[w]) != len(want) || len(got[w][i]) != len(want[i]) {
				t.Fatalf("worker %d built a tree of a different size", w)
			}
			for j := range want[i] {
				if got[w][i][j] != want[i][j] {
					t.Fatalf("worker %d, build %d: node %d digests differ from the sequential build", w, i, j)
				}
			}
		}
	}
}

// A node must stay small: the service's retained heap is mostly nodes.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(Node{}); s > 160 {
		t.Errorf("sizeof(Node) = %d bytes, want at most 160", s)
	}
}

func TestSchemaRecord(t *testing.T) {
	sch, other := testSchema(), testSchema()
	b := NewBuilder(sch, uri.NewAllocator())
	leaf := b.MustN("Num", 1)
	tr := b.MustN("Add", leaf, b.MustN("Var", "x"))
	if tr.Schema() != sch || leaf.Schema() != sch {
		t.Fatal("New does not record the schema it validated against")
	}
	foreign := NewBuilder(other, uri.NewAllocator()).MustN("Num", 2)
	mixed, err := New(sch, uri.NewAllocator(), "Add", []*Node{leaf, foreign}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Schema() != nil {
		t.Error("a node with a kid built against another schema keeps a schema record")
	}
	if Clone(tr, uri.NewAllocator(), FNV64).Schema() != sch || CloneKeepDigests(tr, uri.NewAllocator()).Schema() != sch {
		t.Error("clones drop the schema record")
	}
	alloc := uri.NewAllocator()
	if Rebuilt(tr, alloc, alloc.Fresh(), []*Node{leaf, tr.Kids[1]}).Schema() != sch {
		t.Error("Rebuilt over kids of the same schema drops the record")
	}
	if Rebuilt(tr, alloc, alloc.Fresh(), []*Node{leaf, foreign}).Schema() != nil {
		t.Error("Rebuilt over a foreign kid keeps the record")
	}
	if (&Node{Tag: "Num"}).Schema() != nil || HashedWith(&Node{Tag: "Num"}, SHA256) {
		t.Error("a hand-assembled node claims a schema record or digests")
	}
}
