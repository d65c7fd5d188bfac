package zabkeeper

import (
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Incremental orbit canonicalization: State implements spec.Orbit, and
// spec.OrbitMin derives the canonical fingerprint, as in raftbase/orbit.go.
// The state is decomposed once into node-id-free sub-digests (per node, per
// ordered pair, global), and each permutation's fingerprint is derived by
// recombining the digests in permuted slot order plus a node-id residue
// read straight from the state. Zab is heavier on ids than Raft — votes
// carry their proposed leader — so the residue covers Vote[i].Leader,
// LeaderID[i], every Recv[i][j].Leader, and the Vote.Leader of every
// in-flight notification message; everything else in those structures
// (epochs, counters, histories) is id-free and hashed once. The contract
// OrbitCombine(perm) == Permute(s, perm).Fingerprint() holds by
// construction; spectest.AssertOrbitEquiv property-tests it against the
// materialising reference.

// OrbitDigests implements spec.Orbit.
func (s *State) OrbitDigests(node, edge []uint64) uint64 {
	n := s.n
	var h fp.Hasher
	for i := 0; i < n; i++ {
		h.Reset()
		h.WriteInt(s.ZState[i])
		h.WriteInt(s.Round[i])
		h.WriteInt(s.Vote[i].Epoch)
		h.WriteInt(s.Vote[i].Counter)
		h.WriteInt(s.Epoch[i])
		h.Sep()
		h.WriteInt(len(s.History[i]))
		for _, t := range s.History[i] {
			h.WriteInt(t.Epoch)
			h.WriteInt(t.Counter)
			h.WriteString(t.Value)
		}
		h.WriteInt(s.Commit[i])
		h.WriteInt(s.PendEpoch[i])
		// Row shapes of the nil-able leader matrices (cells live in the
		// edge digests).
		h.WriteInt(s.Synced[i].RowLen(n))
		h.WriteInt(len(s.Acked[i]))
		h.WriteBool(s.Activated.Has(i))
		h.WriteInt(s.Counter[i])
		h.WriteBool(s.Up().Has(i))
		node[i] = h.Sum()
	}
	for a := 0; a < n; a++ {
		recv := s.Recv[a]
		synced, acked := s.Synced[a], s.Acked[a]
		for b := 0; b < n; b++ {
			h.Reset()
			h.WriteInt(recv[b].Epoch)
			h.WriteInt(recv[b].Counter)
			if synced != 0 {
				h.WriteBool(synced.Has(b))
			}
			if len(acked) > 0 {
				h.WriteInt(acked[b])
			}
			if a != b {
				spec.HashEdge(&s.Net, &h, a, b, s)
			}
			edge[a*n+b] = h.Sum()
		}
	}
	h.Reset()
	h.WriteInt(len(s.Committed))
	for _, t := range s.Committed {
		h.WriteInt(t.Epoch)
		h.WriteInt(t.Counter)
		h.WriteString(t.Value)
	}
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
	// Node-id residue, written in permuted slot order with every id mapped
	// through perm (-1 absence markers pass through unmapped, matching
	// permute's mapID). Queue lengths and row shapes are already pinned by
	// the edge/node digests, so the residue needs no framing of its own.
	h.Sep()
	mapID := func(id int) int {
		if id < 0 {
			return id
		}
		return perm[id]
	}
	for j := 0; j < n; j++ {
		i := inv[j]
		h.WriteInt(mapID(s.Vote[i].Leader))
		h.WriteInt(mapID(s.LeaderID[i]))
	}
	for a := 0; a < n; a++ {
		recv := s.Recv[inv[a]]
		for b := 0; b < n; b++ {
			h.WriteInt(mapID(recv[inv[b]].Leader))
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			q := s.Queue(inv[a], inv[b])
			for k := range q {
				h.WriteInt(mapID(int(q[k].leader)))
			}
		}
	}
	h.WriteDigest(global)
	return h.Sum()
}

// OrbitFingerprint implements spec.OrbitHasher.
func (m *Machine) OrbitFingerprint(st spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	return spec.OrbitMin(st.(*State), perms, scratch)
}
