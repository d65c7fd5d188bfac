package raftbase

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// TestFingerprintPastPermTableMax: a fingerprint above spec.PermTableMax
// builds no permutation table (it once built all n! of them per call) and is
// still the identity combine of the orbit digests.
func TestFingerprintPastPermTableMax(t *testing.T) {
	cfg := spec.DefaultConfig()
	cfg.Nodes = 9
	s := New(Options{System: "gosyncobj", Config: cfg}).Init()[0].(*State)
	if n := testing.AllocsPerRun(10, func() { s.Fingerprint() }); n > 2 {
		t.Errorf("9-node Fingerprint: %v allocations, want at most the 2 digest buffers", n)
	}
	node, edge := make([]uint64, 9), make([]uint64, 81)
	id := spec.PermTableFor(9).Identity
	if got, want := s.Fingerprint(), s.OrbitCombine(node, edge, s.OrbitDigests(node, edge), id, id); got != want {
		t.Errorf("Fingerprint = %#x, want %#x from the 9-node table's identity", got, want)
	}
}
