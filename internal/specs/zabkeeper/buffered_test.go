package zabkeeper_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// TestAppendNextMatchesNext property-tests the spec.BufferedMachine contract
// on the zabkeeper specification, in both the fixed and the buggy
// (ZabVoteOrder) builds so the flagged-state early return is covered too.
func TestAppendNextMatchesNext(t *testing.T) {
	b := spec.Budget{
		Name: "buffered", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1,
		MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3,
	}
	for name, bugs := range map[string]bugdb.Set{
		"fixed": bugdb.NoBugs(),
		"buggy": bugdb.AllBugs("zabkeeper"),
	} {
		t.Run(name, func(t *testing.T) {
			m := zabkeeper.New(spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}, b, bugs)
			spectest.AssertBufferedEquiv(t, m, 25, 30, 11)
		})
	}
}

// TestCodecRoundTrip property-tests the spec.StateCodec contract: the fixed
// build walks deep enough to elect leaders (Synced/Acked rows), replicate
// (histories, sync messages carrying them) and crash; the buggy build adds
// flagged states.
func TestCodecRoundTrip(t *testing.T) {
	b := spec.Budget{
		Name: "codec", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1,
		MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3,
	}
	for name, bugs := range map[string]bugdb.Set{
		"fixed": bugdb.NoBugs(),
		"buggy": bugdb.AllBugs("zabkeeper"),
	} {
		t.Run(name, func(t *testing.T) {
			m := zabkeeper.New(spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}, b, bugs)
			spectest.AssertCodecRoundTrip(t, m, 25, 40, 13)
		})
	}
}
