package toy

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// TestFingerprintPastPermTableMax: a fingerprint above spec.PermTableMax
// builds no permutation table (it once built all n! of them per call) and is
// still the identity combine of the node digests.
func TestFingerprintPastPermTableMax(t *testing.T) {
	s := (&LostUpdate{N: 9}).Init()[0].(*LostUpdateState)
	if n := testing.AllocsPerRun(10, func() { s.Fingerprint() }); n > 2 {
		t.Errorf("9-node Fingerprint: %v allocations, want at most the digest buffer", n)
	}
	node := make([]uint64, 9)
	s.orbitDigests(node)
	if got, want := s.Fingerprint(), s.orbitCombine(node, spec.PermTableFor(9).Identity); got != want {
		t.Errorf("Fingerprint = %#x, want %#x from the 9-node table's identity", got, want)
	}
}
