package gosyncobj_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/systems/gosyncobj"
	"github.com/sandtable-go/sandtable/internal/systems/systemstest"
)

// TestObserveMatchesReference holds the slot rendering to the map rendering
// it replaced on every state of replayed walks, crashed nodes included.
func TestObserveMatchesReference(t *testing.T) {
	systemstest.AssertObserveMatches(t, "gosyncobj", gosyncobj.ObserveReference)
}
