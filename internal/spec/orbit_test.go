package spec_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	scraft "github.com/sandtable-go/sandtable/internal/specs/craft"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// TestCanonicalizationAllocatesNothing: on every family, hashing a walked
// state allocates nothing — State.Fingerprint hashes into its own stack
// spec.DigestBuf, and OrbitFingerprint into the caller's warm scratch. A
// Fingerprint routed through the spec.Orbit interface would move its digest
// buffers to the heap on every call, which no allocation budget elsewhere
// is tight enough to see.
func TestCanonicalizationAllocatesNothing(t *testing.T) {
	cfg := spec.DefaultConfig()
	cfg.Nodes = 3
	budget := spec.Budget{MaxTimeouts: 3, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2, MaxBuffer: 3}
	for _, m := range []spec.Machine{
		scraft.New(cfg, budget, bugdb.NoBugs()),
		zabkeeper.New(cfg, budget, bugdb.NoBugs()),
		&toy.LostUpdate{N: 4},
	} {
		t.Run(m.Name(), func(t *testing.T) {
			pt := spec.PermTableFor(m.NumNodes())
			scratch := fp.NewOrbitScratch()
			states := 0
			spectest.Walk(m, 4, 25, 7, func(s spec.State, d int) bool {
				states++
				if n := testing.AllocsPerRun(5, func() { s.Fingerprint() }); n != 0 {
					t.Fatalf("Fingerprint at depth %d: %v allocations, want 0", d, n)
				}
				m.OrbitFingerprint(s, pt, scratch)
				if n := testing.AllocsPerRun(5, func() { m.OrbitFingerprint(s, pt, scratch) }); n != 0 {
					t.Fatalf("OrbitFingerprint at depth %d with a warm scratch: %v allocations, want 0", d, n)
				}
				return true
			})
			if states < 10 {
				t.Fatalf("walked %d states, want a sample of at least 10", states)
			}
		})
	}
}
