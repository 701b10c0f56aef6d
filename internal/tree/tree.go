// Package tree implements immutable, schema-validated trees with
// cryptographic subtree hashes.
//
// Trees are the input to structural diffing. Every node carries a
// constructor tag, a URI identity, an ordered list of child subtrees (one
// per kid link of the tag's signature), and an ordered list of literal
// values (one per literal link). Construction validates the node against
// its schema, so a *Node is well-typed by construction.
//
// Each node caches two hashes that drive the truediff algorithm's
// equivalence relations (paper §4.1):
//
//   - the structure hash, which covers the tag and the kids' structure
//     hashes but ignores literals — two trees are structurally equivalent
//     iff their structure hashes agree;
//   - the literal hash, which covers the literal values and the kids'
//     literal hashes but ignores tags — two trees are literally equivalent
//     iff their literal hashes agree.
//
// Two trees are equal iff they are both structurally and literally
// equivalent.
package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"repro/internal/sig"
	"repro/internal/uri"
)

// HashKind selects the algorithm used for subtree hashes. The paper uses a
// cryptographic hash (SHA-256); FNV is provided for the hashing ablation
// benchmark.
type HashKind uint8

const (
	// SHA256 is the paper's choice: collision probability is negligible,
	// so hash equality can be used as tree equality.
	SHA256 HashKind = iota
	// FNV64 is a fast non-cryptographic hash; collisions are unlikely but
	// possible, so it trades a little safety for speed.
	FNV64
)

// Digest is a subtree digest. A SHA-256 digest fills all 32 bytes; an
// FNV-64 digest fills the first 8, little-endian, and leaves the rest zero.
// Digests are values, so comparing them or keying a map on them allocates
// nothing.
type Digest [32]byte

// ExactKey identifies a tree up to equality: two trees share an ExactKey
// iff they are structurally and literally equivalent.
type ExactKey struct{ Struct, Lit Digest }

// Node is an immutable tree node. Kids and Lits are ordered exactly as in
// the tag's signature. Do not mutate a Node after construction; build a new
// tree instead (the mutable representation lives in package mtree).
type Node struct {
	Tag  sig.Tag
	URI  uri.URI
	Kids []*Node
	Lits []any

	// sch is the schema the whole subtree was validated against, or nil
	// when no single schema covers it (kids built against another schema,
	// or a node assembled without New).
	sch *sig.Schema
	// height and size are 32-bit so that a node stays within 160 bytes.
	height     int32
	size       int32
	structHash Digest
	litHash    Digest
	// kind is the algorithm of the digests, meaningful only when hashed.
	kind   HashKind
	hashed bool
}

// New validates and constructs a node. kids must match the tag's kid links
// in number and sort (up to subtyping); lits must match the literal links in
// number and base type. Hashes are computed eagerly with SHA-256 so that
// tree construction accounts for hashing cost, as in the paper's evaluation.
func New(sch *sig.Schema, alloc *uri.Allocator, tag sig.Tag, kids []*Node, lits []any) (*Node, error) {
	return NewHashed(sch, alloc, tag, kids, lits, SHA256)
}

// NewHashed is New with an explicit hash algorithm.
func NewHashed(sch *sig.Schema, alloc *uri.Allocator, tag sig.Tag, kids []*Node, lits []any, kind HashKind) (*Node, error) {
	if err := validate(sch, tag, kids, lits); err != nil {
		return nil, err
	}
	return build(sch, alloc.Fresh(), tag, kids, lits, kind), nil
}

// NewWithURI is NewHashed but uses the given URI instead of allocating a
// fresh one, and reserves it in alloc so future allocations cannot collide.
// It is used when reconstructing immutable trees from mutable ones while
// preserving node identities.
func NewWithURI(sch *sig.Schema, alloc *uri.Allocator, u uri.URI, tag sig.Tag, kids []*Node, lits []any, kind HashKind) (*Node, error) {
	if err := validate(sch, tag, kids, lits); err != nil {
		return nil, err
	}
	alloc.Reserve(u)
	return build(sch, u, tag, kids, lits, kind), nil
}

// ValidateNode checks n's own tag, kids and literals against sch exactly as
// New checks its arguments; it does not descend into the kids. A tree whose
// Schema record is sch passed this check at every node when it was built.
func ValidateNode(sch *sig.Schema, n *Node) error { return validate(sch, n.Tag, n.Kids, n.Lits) }

// validate checks a node's tag, kids and literals against sch: the tag is
// declared and not the pre-defined root, and the kids and literals match
// its signature in number, sort (up to subtyping) and base type.
func validate(sch *sig.Schema, tag sig.Tag, kids []*Node, lits []any) error {
	g := sch.Lookup(tag)
	if g == nil {
		return fmt.Errorf("tree: undeclared tag %s", tag)
	}
	if tag == sig.RootTag {
		return fmt.Errorf("tree: cannot construct the pre-defined root tag")
	}
	if len(kids) != len(g.Kids) {
		return fmt.Errorf("tree: tag %s expects %d kids, got %d", tag, len(g.Kids), len(kids))
	}
	if len(lits) != len(g.Lits) {
		return fmt.Errorf("tree: tag %s expects %d literals, got %d", tag, len(g.Lits), len(lits))
	}
	for i, k := range kids {
		if k == nil {
			return fmt.Errorf("tree: tag %s kid %q is nil", tag, g.Kids[i].Link)
		}
		ks, ok := sch.ResultSort(k.Tag)
		if !ok {
			return fmt.Errorf("tree: kid tag %s undeclared", k.Tag)
		}
		if !sch.IsSubsort(ks, g.Kids[i].Sort) {
			return fmt.Errorf("tree: tag %s kid %q: sort %s is not a subsort of %s",
				tag, g.Kids[i].Link, ks, g.Kids[i].Sort)
		}
	}
	for i, l := range lits {
		if !g.Lits[i].Type.Admits(l) {
			return fmt.Errorf("tree: tag %s literal %q: value %v (%T) does not conform to %s",
				tag, g.Lits[i].Link, l, l, g.Lits[i].Type)
		}
	}
	return nil
}

// build constructs and hashes a node validated against sch, copying kids
// and lits so the caller's slices stay its own.
func build(sch *sig.Schema, u uri.URI, tag sig.Tag, kids []*Node, lits []any, kind HashKind) *Node {
	n := &Node{
		Tag:  tag,
		URI:  u,
		Kids: append([]*Node(nil), kids...),
		Lits: append([]any(nil), lits...),
		sch:  subtreeSchema(sch, kids),
	}
	w := hashers.Get().(*hasher)
	n.finish(w, kind)
	hashers.Put(w)
	return n
}

// subtreeSchema is the schema record of a node validated against sch: sch
// when every kid carries it too, and nil otherwise.
func subtreeSchema(sch *sig.Schema, kids []*Node) *sig.Schema {
	for _, k := range kids {
		if k.sch != sch {
			return nil
		}
	}
	return sch
}

// finish computes the cached height, size, and digests of a node whose Tag,
// Kids, and Lits are already set, using w's reusable state. Kids must
// already be finished.
func (n *Node) finish(w *hasher, kind HashKind) {
	h, sz := int32(0), int32(1)
	for _, k := range n.Kids {
		if k.height+1 > h {
			h = k.height + 1
		}
		sz += k.size
	}
	n.height, n.size = h, sz
	n.kind, n.hashed = kind, true
	w.structure(n)
	w.sum(&n.structHash, kind)
	w.literals(n)
	w.sum(&n.litHash, kind)
}

// Height returns the node's height: 0 for leaves.
func (n *Node) Height() int { return int(n.height) }

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int { return int(n.size) }

// Schema returns the schema n's whole subtree was validated against, or nil
// when no single schema covers it. New records it when every kid carries
// the same schema; the differ skips its schema walk when it matches.
func (n *Node) Schema() *sig.Schema { return n.sch }

// StructHash returns the structure-equivalence digest (ignores literals).
func (n *Node) StructHash() Digest { return n.structHash }

// LitHash returns the literal-equivalence digest (ignores tags).
func (n *Node) LitHash() Digest { return n.litHash }

// ExactHash returns a key under which two trees collide iff they are equal
// (structurally and literally equivalent).
func (n *Node) ExactHash() ExactKey { return ExactKey{n.structHash, n.litHash} }

// AppendExactHash appends n's structure digest and then its literal digest
// to b, each at its algorithm's length: 32 bytes for SHA-256, 8 for FNV-64.
// Hex-encoded, these bytes name interned trees on the diffserve wire.
func (n *Node) AppendExactHash(b []byte) []byte {
	l := n.digestLen()
	return append(append(b, n.structHash[:l]...), n.litHash[:l]...)
}

// digestLen is how many bytes of n's digests are meaningful: none for a
// node assembled without hashing.
func (n *Node) digestLen() int {
	switch {
	case !n.hashed:
		return 0
	case n.kind == SHA256:
		return sha256.Size
	}
	return 8
}

// HashKind returns the algorithm of n's digests. It is meaningful only when
// n carries digests at all, which HashedWith also checks.
func (n *Node) HashKind() HashKind { return n.kind }

// StructurallyEquivalent reports whether n and m have the same shape
// modulo literal values (paper: n ≃ m).
func StructurallyEquivalent(n, m *Node) bool { return n.structHash == m.structHash }

// LiterallyEquivalent reports whether n and m carry the same literals
// modulo tags.
func LiterallyEquivalent(n, m *Node) bool { return n.litHash == m.litHash }

// hasher is the reusable state of digest computation: a message buffer and
// one state per algorithm. Each digest is H over a length-prefixed message
// assembled in buf, so strings and kid digests reach the hash without a
// per-node conversion or allocation.
type hasher struct {
	buf []byte
	sha hash.Hash
	fnv hash.Hash64
}

// hashers recycles hasher states across goroutines; New is called from
// concurrent decoders, so the state cannot be a package variable.
var hashers = sync.Pool{New: func() any {
	return &hasher{sha: sha256.New(), fnv: fnv.New64a()}
}}

// structure assembles the structure message: the tag, then the kids'
// structure digests.
func (w *hasher) structure(n *Node) {
	w.buf = w.buf[:0]
	w.str(string(n.Tag))
	for _, k := range n.Kids {
		w.bytes(k.structHash[:k.digestLen()])
	}
}

// literals assembles the literal message: the literals, then the kids'
// literal digests.
func (w *hasher) literals(n *Node) {
	w.buf = w.buf[:0]
	for _, l := range n.Lits {
		w.lit(l)
	}
	for _, k := range n.Kids {
		w.bytes(k.litHash[:k.digestLen()])
	}
}

// sum hashes the assembled message into d.
func (w *hasher) sum(d *Digest, kind HashKind) {
	if kind == SHA256 {
		w.sha.Reset()
		w.sha.Write(w.buf)
		w.sha.Sum(d[:0])
		return
	}
	w.fnv.Reset()
	w.fnv.Write(w.buf)
	*d = Digest{}
	binary.LittleEndian.PutUint64(d[:8], w.fnv.Sum64())
}

func (w *hasher) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *hasher) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *hasher) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// lit appends a literal value with a type discriminator so that, e.g., the
// string "1" and the integer 1 hash differently.
func (w *hasher) lit(v any) {
	switch x := v.(type) {
	case string:
		w.buf = append(w.buf, 's')
		w.str(x)
	case int64:
		w.buf = append(w.buf, 'i')
		w.u64(uint64(x))
	case float64:
		w.buf = append(w.buf, 'f')
		w.u64(math.Float64bits(x))
	case bool:
		w.buf = append(w.buf, 'b')
		if x {
			w.u64(1)
		} else {
			w.u64(0)
		}
	default:
		// Construction validates literal types, so this is unreachable for
		// nodes built through New; hash the formatted value defensively.
		w.buf = append(w.buf, '?')
		w.str(fmt.Sprint(v))
	}
}

// Walk visits the subtree rooted at n in preorder, including n itself.
func Walk(n *Node, f func(*Node)) {
	f(n)
	for _, k := range n.Kids {
		Walk(k, f)
	}
}

// WalkPost visits the subtree rooted at n in postorder, including n.
func WalkPost(n *Node, f func(*Node)) {
	for _, k := range n.Kids {
		WalkPost(k, f)
	}
	f(n)
}

// Count returns the number of nodes in the tree (same as n.Size()).
func Count(n *Node) int { return int(n.size) }

// Equal reports deep structural and literal equality, ignoring URIs. It
// compares hashes first and falls back to a full traversal only when the
// hashes agree, making it safe even under FNV hashing. A subtree shared by
// both trees is equal to itself without a traversal.
func Equal(a, b *Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.structHash != b.structHash || a.litHash != b.litHash {
		return false
	}
	return deepEqual(a, b)
}

func deepEqual(a, b *Node) bool {
	if a == b {
		return true
	}
	if a.Tag != b.Tag || len(a.Kids) != len(b.Kids) || len(a.Lits) != len(b.Lits) {
		return false
	}
	for i := range a.Lits {
		if !LitEqual(a.Lits[i], b.Lits[i]) {
			return false
		}
	}
	for i := range a.Kids {
		if !deepEqual(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// Mismatch walks a and b in lockstep and describes the first node whose
// tag, URI, arity, literals or digests (their kind included) differ, or
// returns "" when the two trees agree node by node. Unlike Equal it
// compares URIs, so it tells whether two constructions of a tree built the
// very same nodes.
func Mismatch(a, b *Node) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return "one tree is nil"
		}
		return ""
	case a.Tag != b.Tag || a.URI != b.URI:
		return fmt.Sprintf("node %s%s, want %s%s", a.Tag, a.URI, b.Tag, b.URI)
	case len(a.Kids) != len(b.Kids) || len(a.Lits) != len(b.Lits):
		return fmt.Sprintf("%s%s: arity differs", b.Tag, b.URI)
	case a.hashed != b.hashed || a.kind != b.kind || a.structHash != b.structHash || a.litHash != b.litHash:
		return fmt.Sprintf("%s%s: digests differ", b.Tag, b.URI)
	}
	for i := range b.Lits {
		if !LitEqual(a.Lits[i], b.Lits[i]) {
			return fmt.Sprintf("%s%s: literal %d is %#v, want %#v", b.Tag, b.URI, i, a.Lits[i], b.Lits[i])
		}
	}
	for i := range b.Kids {
		if msg := Mismatch(a.Kids[i], b.Kids[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// LitEqual reports equality of two literal values under the semantics the
// literal hash uses: float64 values compare by bit pattern, everything
// else by Go equality. Go's == disagrees with the hash on exactly the
// float specials — NaN != NaN although identical NaNs hash equal, and
// -0 == +0 although they hash differently — so comparing literals with ==
// lets hash-equal trees fail observable equality. Concretely, diffing
// trees containing NaN emitted scripts whose unload/update edits could
// never comply with their own source. Every literal comparison in the
// module must go through this function.
func LitEqual(a, b any) bool {
	if af, ok := a.(float64); ok {
		bf, ok := b.(float64)
		return ok && math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// Clone deep-copies the tree, assigning fresh URIs from alloc and
// recomputing hashes with the given algorithm. It is used by benchmarks to
// reconstruct trees before each diff so hashing cost is measured.
func Clone(n *Node, alloc *uri.Allocator, kind HashKind) *Node {
	w := hashers.Get().(*hasher)
	defer hashers.Put(w)
	return clone(n, alloc, kind, w)
}

func clone(n *Node, alloc *uri.Allocator, kind HashKind, w *hasher) *Node {
	kids := make([]*Node, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = clone(k, alloc, kind, w)
	}
	c := &Node{
		Tag:  n.Tag,
		URI:  alloc.Fresh(),
		Kids: kids,
		Lits: append([]any(nil), n.Lits...),
		sch:  n.sch,
	}
	c.finish(w, kind)
	return c
}

// String renders the tree as a compact term with URI subscripts, e.g.
// Add#1(Var#2{name="a"}, Num#3{n=1}).
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, nil)
	return b.String()
}

// StringIn renders the tree like String but labels literals with their
// link names from the schema.
func (n *Node) StringIn(sch *sig.Schema) string {
	var b strings.Builder
	n.format(&b, sch)
	return b.String()
}

func (n *Node) format(b *strings.Builder, sch *sig.Schema) {
	b.WriteString(string(n.Tag))
	b.WriteString(n.URI.String())
	if len(n.Lits) > 0 {
		b.WriteByte('{')
		var g *sig.Sig
		if sch != nil {
			g = sch.Lookup(n.Tag)
		}
		for i, l := range n.Lits {
			if i > 0 {
				b.WriteString(", ")
			}
			if g != nil && i < len(g.Lits) {
				b.WriteString(string(g.Lits[i].Link))
				b.WriteByte('=')
			}
			fmt.Fprintf(b, "%#v", l)
		}
		b.WriteByte('}')
	}
	if len(n.Kids) > 0 {
		b.WriteByte('(')
		for i, k := range n.Kids {
			if i > 0 {
				b.WriteString(", ")
			}
			k.format(b, sch)
		}
		b.WriteByte(')')
	}
}
