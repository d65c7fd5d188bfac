package toy_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

// TestContract runs every law of the spec.Machine contract on both toy
// variants (the racy model and the atomic fix).
func TestContract(t *testing.T) {
	for _, m := range []*toy.LostUpdate{{N: 3}, {N: 3, Atomic: true}} {
		spectest.AssertContract(t, m, 20, 10, 5)
	}
}
