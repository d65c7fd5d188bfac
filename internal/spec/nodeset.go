package spec

import (
	"math/bits"

	"github.com/sandtable-go/sandtable/internal/trace"
)

// NodeSet is a set of node ids as a bit mask (bit j is node j): what a spec
// family stores where it would otherwise keep a row of n booleans per node —
// who voted, which links are cut — at eight bytes a row and no allocation.
// The zero value is the empty set.
type NodeSet uint64

// MaxNodes is the largest cluster a NodeSet can index; machines that store
// NodeSets refuse a configuration beyond it.
const MaxNodes = 64

// SingleNode returns the set holding only node j.
func SingleNode(j int) NodeSet { return 1 << uint(j) }

// Has reports whether node j is in the set.
func (s NodeSet) Has(j int) bool { return s>>uint(j)&1 != 0 }

// Count returns the number of nodes in the set.
func (s NodeSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Add puts node j in the set.
func (s *NodeSet) Add(j int) { *s |= SingleNode(j) }

// Del takes node j out of the set.
func (s *NodeSet) Del(j int) { *s &^= SingleNode(j) }

// RowLen is the length of the row of booleans s stands in for in a state of n
// nodes, where the empty set stands for no row at all: n, or 0. Specs whose
// sets replaced such nil-able rows hash this where they hashed len(row), and
// encode with AppendNodeSetRow, so that fingerprints and encodings are what
// they were.
func (s NodeSet) RowLen(n int) int {
	if s == 0 {
		return 0
	}
	return n
}

// Permute returns the set of perm[j] for every j in s.
func (s NodeSet) Permute(perm []int) NodeSet {
	var out NodeSet
	for ; s != 0; s &= s - 1 {
		out.Add(perm[bits.TrailingZeros64(uint64(s))])
	}
	return out
}

// String renders the set as its ids in ascending order: "{0 2}".
func (s NodeSet) String() string { return trace.IDSet(uint64(s)) }
