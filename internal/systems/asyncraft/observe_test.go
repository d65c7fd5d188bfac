package asyncraft_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/systems/asyncraft"
	"github.com/sandtable-go/sandtable/internal/systems/systemstest"
)

// TestObserveMatchesReference holds the slot rendering to the map rendering
// it replaced on every state of replayed walks, crashed nodes included.
func TestObserveMatchesReference(t *testing.T) {
	systemstest.AssertObserveMatches(t, "asyncraft", asyncraft.ObserveReference)
}
