package raftbase

import (
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Incremental orbit canonicalization: State implements spec.Orbit, and
// spec.OrbitMin derives the canonical fingerprint from its sub-digests.
//
// The state is decomposed into sub-digests that are invariant under node
// renaming, hashed ONCE per state by OrbitDigests:
//
//   - node[i]: node i's local component — role, term, log, commit index,
//     snapshot boundary, liveness, durable mirrors, and the row *shapes*
//     (lengths) of its nil-able per-peer matrices. No node ids.
//   - edge[a*n+b]: the ordered-pair component — a's per-peer matrix cells
//     for peer b (Votes/PreVotes/Next/Match, written only when the row is
//     materialised; the row length in node[a] pins the structure), and for
//     a != b the network's half (spec.Net.HashEdge: the a→b channel queue
//     and Cut/Part flags). raftbase messages carry no node ids, so whole
//     queues are permutation-invariant.
//   - a global digest: state shared by all nodes (the committed ghost log,
//     flags, KV read ghosts, budget counters, violation flag).
//
// OrbitCombine then derives the fingerprint of the state permuted by any
// perm without touching the state again, except for the handful of
// node-id-VALUED fields that cannot live in invariant sub-digests
// (VotedFor, DurVote, LastReadNode): it writes node digests in permuted
// slot order, edge digests in permuted pair order, then the id residue
// mapped through perm — exactly the data a materialised Permute would
// produce. State.Fingerprint is OrbitCombine under the identity, so
//
//	OrbitCombine(perm) == Permute(s, perm).Fingerprint()
//
// holds by construction (slot j of the permuted state is original node
// inv[j]). spectest.AssertOrbitEquiv property-tests the equality against
// the materialising reference for every permutation.

// OrbitDigests implements spec.Orbit.
func (s *State) OrbitDigests(node, edge []uint64) uint64 {
	n := s.n
	vals := s.vocab().vals
	up, nextRows, matchRows := s.Up(), s.nextRows(), s.matchRows()
	var h fp.Hasher
	for i := 0; i < n; i++ {
		h.Reset()
		h.WriteInt(s.role(i))
		h.WriteInt(s.term(i))
		h.Sep()
		s.hashRegion(&h, i, vals)
		h.WriteInt(s.commit(i))
		h.WriteInt(s.snapIdx(i))
		h.WriteInt(s.snapTerm(i))
		h.WriteBool(up.Has(i))
		// Row shapes of the nil-able matrices: which of node i's per-peer
		// rows are materialised. The cells live in the edge digests; pinning
		// the lengths here keeps an absent row from aliasing an all-zero one.
		h.WriteInt(s.votes(i).RowLen(n))
		h.WriteInt(s.preVotes(i).RowLen(n))
		h.WriteInt((nextRows & spec.SingleNode(i)).RowLen(n))
		h.WriteInt((matchRows & spec.SingleNode(i)).RowLen(n))
		// Durability mirrors are hashed only when the fault model is active,
		// so instantiations without dirty crashes keep their hashing cost
		// unchanged (DurVote is a node id: it lives in the combine residue).
		if s.durability {
			h.WriteInt(s.durTerm(i))
			h.Sep()
			s.hashRegion(&h, durLog(n, i), vals)
		}
		node[i] = h.Sum()
	}
	for a := 0; a < n; a++ {
		votes, preVotes := s.votes(a), s.preVotes(a)
		hasNext, hasMatch := nextRows.Has(a), matchRows.Has(a)
		for b := 0; b < n; b++ {
			h.Reset()
			if votes != 0 {
				h.WriteBool(votes.Has(b))
			}
			if preVotes != 0 {
				h.WriteBool(preVotes.Has(b))
			}
			if hasNext {
				h.WriteInt(s.next(a, b))
			}
			if hasMatch {
				h.WriteInt(s.match(a, b))
			}
			if a != b {
				spec.HashEdge(&s.Net, &h, a, b, s)
			}
			edge[a*n+b] = h.Sum()
		}
	}
	h.Reset()
	s.hashRegion(&h, committed(n), vals)
	h.WriteBool(s.SnapConflictInstall)
	lr := s.lastRead()
	h.WriteString(lr.Key)
	h.WriteString(lr.Val)
	h.WriteString(lr.Want)
	h.WriteBool(lr.Bad)
	s.Counters.Hash(&h)
	s.Viol.Hash(&h)
	return h.Sum()
}

// OrbitCombine implements spec.Orbit.
func (s *State) OrbitCombine(node, edge []uint64, global uint64, perm, inv []int) uint64 {
	n := s.n
	var h fp.Hasher
	h.Reset()
	for j := 0; j < n; j++ {
		h.WriteDigest(node[inv[j]])
	}
	for a := 0; a < n; a++ {
		row := edge[inv[a]*n:]
		for b := 0; b < n; b++ {
			h.WriteDigest(row[inv[b]])
		}
	}
	// Node-id residue: the only fields whose VALUES are node identities,
	// written in permuted slot order with the ids mapped through perm.
	h.Sep()
	for j := 0; j < n; j++ {
		v := s.votedFor(inv[j])
		if v >= 0 {
			v = perm[v]
		}
		h.WriteInt(v)
	}
	if s.durability {
		for j := 0; j < n; j++ {
			v := s.durVote(inv[j])
			if v >= 0 {
				v = perm[v]
			}
			h.WriteInt(v)
		}
	}
	h.WriteInt(perm[s.lastRead().Node])
	h.WriteDigest(global)
	return h.Sum()
}

// OrbitFingerprint implements spec.OrbitHasher.
func (m *Machine) OrbitFingerprint(st spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	return spec.OrbitMin(st.(*State), perms, scratch)
}

// PermutedFingerprint implements spec.FastSymmetric, which benchmark/probe
// requires of the machines it wraps.
func (m *Machine) PermutedFingerprint(st spec.State, perm []int) uint64 {
	return spec.PermutedFingerprint(st.(*State), perm)
}
