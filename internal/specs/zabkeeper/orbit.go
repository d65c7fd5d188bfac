package zabkeeper

import (
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Incremental orbit canonicalization (spec.OrbitHasher), mirroring
// raftbase/orbit.go: the state is decomposed once into node-id-free
// sub-digests (per node, per ordered pair, global), and each permutation's
// fingerprint is derived by recombining the digests in permuted slot order
// plus a node-id residue read straight from the state. Zab is heavier on
// ids than Raft — votes carry their proposed leader — so the residue
// covers Vote[i].Leader, LeaderID[i], every Recv[i][j].Leader, and the
// Vote.Leader of every in-flight notification message; everything else in
// those structures (epochs, counters, histories) is id-free and hashed
// once. The contract orbitCombine(perm) == Permute(s, perm).Fingerprint()
// holds by construction; zabkeeper_test.go property-tests it against the
// materialising reference.

// orbitMaxNodes bounds the stack-allocated digest buffers used by
// Fingerprint and PermutedFingerprint (heap fallback above it).
const orbitMaxNodes = 8

// orbitDigests fills node (len n) and edge (len n*n, row-major) with the
// state's id-free sub-digests and returns the global digest.
func (s *State) orbitDigests(node, edge []uint64) uint64 {
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
		h.WriteBool(s.Up.Has(i))
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
				q := s.Chan[a][b]
				h.WriteInt(len(q))
				for k := range q {
					q[k].hashIDFree(&h)
				}
				h.WriteBool(s.Cut[a].Has(b))
				h.WriteBool(s.Part[a].Has(b))
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

// orbitCombine folds the sub-digests into the fingerprint of the state
// permuted by perm (inv is perm's inverse). Under the identity permutation
// this IS State.Fingerprint.
func (s *State) orbitCombine(node, edge []uint64, global uint64, perm, inv []int) uint64 {
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
		row := s.Chan[inv[a]]
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			q := row[inv[b]]
			for k := range q {
				h.WriteInt(mapID(int(q[k].leader)))
			}
		}
	}
	h.WriteDigest(global)
	return h.Sum()
}

// orbitBuffers returns digest buffers for an n-node state: views of the
// caller's stack arrays when the arity fits, heap slices otherwise.
func orbitBuffers(n int, nodeBuf *[orbitMaxNodes]uint64, edgeBuf *[orbitMaxNodes * orbitMaxNodes]uint64) (node, edge []uint64) {
	if n <= orbitMaxNodes {
		return nodeBuf[:n], edgeBuf[:n*n]
	}
	return make([]uint64, n), make([]uint64, n*n)
}

// OrbitFingerprint implements spec.OrbitHasher: the minimum fingerprint
// over all node permutations (and whether a non-identity permutation
// produced it), from one digest pass plus cheap per-permutation combines.
func (m *Machine) OrbitFingerprint(st spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	s := st.(*State)
	scratch.Reset(s.n)
	g := s.orbitDigests(scratch.Node, scratch.Edge)
	plain := s.orbitCombine(scratch.Node, scratch.Edge, g, perms.Identity, perms.Identity)
	min := plain
	for k, p := range perms.NonIdentity {
		if f := s.orbitCombine(scratch.Node, scratch.Edge, g, p, perms.NonIdentityInv[k]); f < min {
			min = f
		}
	}
	return min, min != plain
}
