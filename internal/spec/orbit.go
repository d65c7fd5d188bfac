package spec

import "github.com/sandtable-go/sandtable/internal/fp"

// Orbit is what a spec family writes for symmetry reduction: its state split
// into sub-digests that no node renaming changes, and the combine that folds
// them back together under a permutation. Everything else is derived here
// once for every family — the min-of-orbit loop (OrbitMin), one permuted
// fingerprint (PermutedFingerprint), and the stack buffers a concrete
// State.Fingerprint hashes into (DigestBuf) — so that a family's
// OrbitFingerprint is one call to OrbitMin and its Fingerprint is
// OrbitCombine under the identity.
type Orbit interface {
	State
	// OrbitDigests fills node (one digest per node) and edge (one per
	// ordered node pair, row-major: the pair (a, b) at a*n+b) with digests
	// that mention no node identity, and returns the digest of what the
	// nodes share. A family with no per-pair state leaves edge alone.
	OrbitDigests(node, edge []uint64) (global uint64)
	// OrbitCombine returns the fingerprint of the state permuted by perm
	// from its sub-digests: node digests in permuted slot order (slot j holds
	// original node inv[j], inv being perm's inverse), edge digests in
	// permuted pair order, the fields whose values are node identities
	// mapped through perm, and global. Under the identity it is
	// State.Fingerprint, so it equals Permute(s, perm).Fingerprint() by
	// construction.
	OrbitCombine(node, edge []uint64, global uint64, perm, inv []int) uint64
}

// OrbitMin is OrbitHasher.OrbitFingerprint for an Orbit state: the minimum
// fingerprint over every permutation in perms, and whether a non-identity
// permutation produced it, from one digest pass into scratch plus one cheap
// combine per permutation — O(|state| + P!·P²) instead of O(P!·|state|).
func OrbitMin(s Orbit, perms *PermTable, scratch *fp.OrbitScratch) (min uint64, reduced bool) {
	scratch.Reset(perms.N)
	g := s.OrbitDigests(scratch.Node, scratch.Edge)
	plain := s.OrbitCombine(scratch.Node, scratch.Edge, g, perms.Identity, perms.Identity)
	min = plain
	for k, p := range perms.NonIdentity {
		if f := s.OrbitCombine(scratch.Node, scratch.Edge, g, p, perms.NonIdentityInv[k]); f < min {
			min = f
		}
	}
	return min, min != plain
}

// PermutedFingerprint is Permute(s, perm).Fingerprint() without
// materialising the permuted state: one digest pass and one combine under
// perm. Only tests and the FastSymmetric shim call it, so its buffers come
// from the heap.
func PermutedFingerprint(s Orbit, perm []int) uint64 {
	n := len(perm)
	node, edge, inv := make([]uint64, n), make([]uint64, n*n), make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	return s.OrbitCombine(node, edge, s.OrbitDigests(node, edge), perm, inv)
}

// DigestBuf is room for the sub-digests of a state of up to PermTableMax
// nodes. A concrete State.Fingerprint declares one as a local variable, so
// that hashing a state allocates nothing: reached through the Orbit
// interface, the buffers would move to the heap on every call.
type DigestBuf struct {
	node [PermTableMax]uint64
	edge [PermTableMax * PermTableMax]uint64
}

// Slices returns node and edge buffers for an n-node state: views of b up to
// PermTableMax nodes, heap slices past it.
func (b *DigestBuf) Slices(n int) (node, edge []uint64) {
	if n <= PermTableMax {
		return b.node[:n], b.edge[:n*n]
	}
	return make([]uint64, n), make([]uint64, n*n)
}
