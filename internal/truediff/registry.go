// Package truediff implements the paper's structural diffing algorithm
// (Section 4). Given a source tree and a target tree over the same schema,
// Diff computes a concise, well-typed truechange edit script together with
// the patched tree, in four steps:
//
//  1. subtree equivalence relations, precomputed as cryptographic hashes on
//     the trees themselves (package tree);
//  2. subtree shares: structurally equivalent subtrees of source and target
//     are assigned the same share, and source subtrees register as
//     available resources (with equal subtrees assigned preemptively);
//  3. candidate selection: target subtrees acquire available source
//     subtrees greedily in highest-first order, preferring literally
//     equivalent (i.e. exact) copies;
//  4. edit computation: a simultaneous traversal emits detach/unload and
//     load/attach edits for changed regions and literal updates for reused
//     subtrees, with negative edits ordered before positive ones.
//
// The algorithm treats subtrees as linear resources: a source subtree is
// assigned to at most one target subtree, which is what makes the generated
// scripts well-typed under truechange's linear type system.
package truediff

import "repro/internal/tree"

// share manages all source subtrees of one equivalence class (one
// candidate-key value) that are still available for reuse, plus an index by
// preference key for selecting exact copies first (paper §4.2–4.3).
type share struct {
	// queue holds available trees in registration order; entries are
	// deleted lazily (removed stays authoritative). Registration order
	// makes candidate selection deterministic.
	queue []*tree.Node
	// member tracks current availability.
	member map[*tree.Node]bool
	// byPrefer indexes available trees by preference key (literal hash),
	// also with lazy deletion.
	byPrefer map[tree.Digest][]*tree.Node
}

func newShare() *share {
	return &share{
		member:   make(map[*tree.Node]bool),
		byPrefer: make(map[tree.Digest][]*tree.Node),
	}
}

// registerAvailable marks the source subtree n as an available resource of
// this share. Registering the same node twice is a no-op.
func (s *share) registerAvailable(n *tree.Node, prefKey tree.Digest) {
	if s.member[n] {
		return
	}
	s.member[n] = true
	s.queue = append(s.queue, n)
	s.byPrefer[prefKey] = append(s.byPrefer[prefKey], n)
}

// removeAvailable withdraws n from the share (lazy deletion in the queues).
func (s *share) removeAvailable(n *tree.Node) {
	delete(s.member, n)
}

// takePreferred acquires an available tree whose preference key matches,
// or returns nil. The acquired tree is removed from the share. The second
// result is how many queue entries were scanned (including stale ones),
// feeding the explain layer's "candidates considered" provenance.
func (s *share) takePreferred(prefKey tree.Digest) (*tree.Node, int) {
	q := s.byPrefer[prefKey]
	scanned := 0
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		scanned++
		if s.member[n] {
			s.byPrefer[prefKey] = q
			s.removeAvailable(n)
			return n, scanned
		}
	}
	if len(q) == 0 {
		delete(s.byPrefer, prefKey)
	} else {
		s.byPrefer[prefKey] = q
	}
	return nil, scanned
}

// takeAny acquires any available tree, or returns nil. The second result
// counts scanned queue entries, as for takePreferred.
func (s *share) takeAny() (*tree.Node, int) {
	scanned := 0
	for len(s.queue) > 0 {
		n := s.queue[0]
		s.queue = s.queue[1:]
		scanned++
		if s.member[n] {
			s.removeAvailable(n)
			return n, scanned
		}
	}
	return nil, scanned
}

// recycle empties the share for reuse by a later diff, keeping the
// allocated maps (and the queue's backing array) alive.
func (s *share) recycle() {
	clear(s.member)
	clear(s.byPrefer)
	clear(s.queue)
	s.queue = s.queue[:0]
}

// registry assigns shares to subtrees: two subtrees receive the same share
// iff their candidate keys agree (the paper's SubtreeRegistry, which uses a
// hash trie; a Go map over the hash provides the same constant-time
// behaviour). A registry is recyclable: reset returns its shares to a free
// list so repeated diffs through one Scratch amortize the map allocations.
type registry struct {
	shares map[tree.ExactKey]*share
	free   []*share
}

func newRegistry() registry {
	return registry{shares: make(map[tree.ExactKey]*share)}
}

// reset prepares the registry for the next diff, recycling every share.
func (r *registry) reset() {
	for _, s := range r.shares {
		s.recycle()
		r.free = append(r.free, s)
	}
	clear(r.shares)
}

// shareFor returns the share for candidate key, creating it on first use
// (drawing recycled shares from the free list when available).
func (r *registry) shareFor(key tree.ExactKey) *share {
	s, ok := r.shares[key]
	if !ok {
		if n := len(r.free); n > 0 {
			s = r.free[n-1]
			r.free[n-1] = nil
			r.free = r.free[:n-1]
		} else {
			s = newShare()
		}
		r.shares[key] = s
	}
	return s
}

// lookup returns the share for key, or nil if no subtree produced it.
func (r *registry) lookup(key tree.ExactKey) *share {
	return r.shares[key]
}
