package toy_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

// TestOrbitFingerprintMatchesReference property-tests the spec.OrbitHasher
// contract on the toy model through the shared spectest harness.
func TestOrbitFingerprintMatchesReference(t *testing.T) {
	spectest.AssertOrbitEquiv(t, &toy.LostUpdate{N: 3}, 20, 10, 5)
}

// TestAppendNextMatchesNext property-tests the spec.BufferedMachine contract
// on both toy variants (the racy model and the atomic fix).
func TestAppendNextMatchesNext(t *testing.T) {
	for _, m := range []*toy.LostUpdate{{N: 3}, {N: 3, Atomic: true}} {
		spectest.AssertBufferedEquiv(t, m, 20, 10, 3)
	}
}

// TestCodecRoundTrip property-tests the spec.StateCodec contract on both toy
// variants.
func TestCodecRoundTrip(t *testing.T) {
	for _, m := range []*toy.LostUpdate{{N: 3}, {N: 3, Atomic: true}} {
		spectest.AssertCodecRoundTrip(t, m, 20, 10, 7)
	}
}
