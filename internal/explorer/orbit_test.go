package explorer

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	sgso "github.com/sandtable-go/sandtable/internal/specs/gosyncobj"
)

// TestOrbitCanonicalizationCounters asserts the explorer.canonical.orbit
// metric: one canonicalization per enumerated successor plus one per initial
// state on the single-process path. (That the fingerprints themselves are
// right is integrations' FuzzShapeMatchesOracle and
// spectest.AssertOrbitEquiv.)
func TestOrbitCanonicalizationCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := sgso.New(spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}},
		spec.Budget{Name: "cnt", MaxTimeouts: 2, MaxBuffer: 3}, bugdb.NoBugs())
	res := NewChecker(m, Options{Symmetry: true, MaxStates: 5_000, Metrics: reg}).Run()
	orbit := reg.Gauge("explorer.canonical.orbit").Value()
	if want := res.Transitions + int64(len(m.Init())); orbit == 0 || orbit != want {
		t.Fatalf("orbit canonicalizations = %d, want transitions+inits = %d", orbit, want)
	}
}
