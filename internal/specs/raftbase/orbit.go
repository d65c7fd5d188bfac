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
//     a != b the a→b channel queue and Cut/Part flags. raftbase messages
//     carry no node ids, so whole queues are permutation-invariant.
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
	var h fp.Hasher
	for i := 0; i < n; i++ {
		h.Reset()
		h.WriteInt(s.Role[i])
		h.WriteInt(s.Term[i])
		h.Sep()
		h.WriteInt(len(s.Log[i]))
		for _, e := range s.Log[i] {
			h.WriteInt(e.Term)
			h.WriteString(e.Value)
		}
		h.WriteInt(s.Commit[i])
		h.WriteInt(s.SnapIdx[i])
		h.WriteInt(s.SnapTerm[i])
		h.WriteBool(s.Up.Has(i))
		// Row shapes of the nil-able matrices: which of node i's per-peer
		// rows are materialised. The cells live in the edge digests; pinning
		// the lengths here keeps an absent row from aliasing an all-zero one.
		h.WriteInt(s.Votes[i].RowLen(n))
		h.WriteInt(s.PreVotes[i].RowLen(n))
		h.WriteInt(len(s.Next[i]))
		h.WriteInt(len(s.Match[i]))
		// Durability mirrors are hashed only when the fault model is active,
		// so instantiations without dirty crashes keep their hashing cost
		// unchanged (DurVote is a node id: it lives in the combine residue).
		if s.durability {
			h.WriteInt(s.DurTerm[i])
			h.Sep()
			h.WriteInt(len(s.DurLog[i]))
			for _, e := range s.DurLog[i] {
				h.WriteInt(e.Term)
				h.WriteString(e.Value)
			}
		}
		node[i] = h.Sum()
	}
	for a := 0; a < n; a++ {
		votes, preVotes := s.Votes[a], s.PreVotes[a]
		next, match := s.Next[a], s.Match[a]
		for b := 0; b < n; b++ {
			h.Reset()
			if votes != 0 {
				h.WriteBool(votes.Has(b))
			}
			if preVotes != 0 {
				h.WriteBool(preVotes.Has(b))
			}
			if len(next) > 0 {
				h.WriteInt(next[b])
			}
			if len(match) > 0 {
				h.WriteInt(match[b])
			}
			if a != b {
				q := s.Chan[a][b]
				h.WriteInt(len(q))
				for k := range q {
					q[k].hash(&h)
				}
				h.WriteBool(s.Cut[a].Has(b))
				h.WriteBool(s.Part[a].Has(b))
			}
			edge[a*n+b] = h.Sum()
		}
	}
	h.Reset()
	h.WriteInt(len(s.Committed))
	for _, e := range s.Committed {
		h.WriteInt(e.Term)
		h.WriteString(e.Value)
	}
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
		v := s.VotedFor[inv[j]]
		if v >= 0 {
			v = perm[v]
		}
		h.WriteInt(v)
	}
	if s.durability {
		for j := 0; j < n; j++ {
			v := s.DurVote[inv[j]]
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
