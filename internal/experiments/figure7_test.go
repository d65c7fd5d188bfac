package experiments

import (
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/scenario"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
	"github.com/sandtable-go/sandtable/internal/vnet"
)

// TestFigure7ScenarioDirected drives the exact Figure 7 event chain through
// the craft specification with the CRaft#1+#2 defects enabled and asserts
// the paper's consequence: a follower commits a conflicting entry, so the
// cluster's committed logs disagree. (`cmd/experiments -fig 7` finds the same
// chain by BFS; this is the deterministic fast check.)
func TestFigure7ScenarioDirected(t *testing.T) {
	m := raftbase.New(raftbase.Options{
		System:    "craft",
		Profile:   raftbase.CRaft,
		Transport: vnet.UDP,
		Snapshots: true,
		Bugs:      bugdb.NoBugs().With(bugdb.CRaftFirstEntryAppend, bugdb.CRaftAEInsteadOfSnapshot),
		Config:    cfgW1(3),
		Budget: spec.Budget{Name: "fig7", MaxTimeouts: 3, MaxRequests: 2,
			MaxDrops: 1, MaxBuffer: 3, MaxCompactions: 1},
		ContinuePastFlag: true,
	})
	script := []string{
		"TimeoutElection n2", // node 2 leads term 1
		"HandleRequestVote 2->0",
		"HandleRequestVoteResponse 0->2",
		`ClientRequest n2 "v1"`, // e1 appended at node 2 only
		"TimeoutElection n0",    // node 0 takes over in term 2
		"HandleRequestVote 0->1",
		"HandleRequestVoteResponse 1->0",
		`ClientRequest n0 "v1"`,            // e2
		"HandleAppendEntries 0->1 [1]",     // replicate e2 to node 1
		"HandleAppendEntriesResponse 1->0", // e2 commits
		"CompactLog n0",                    // e2 compacted into a snapshot
		"DropMessage 0->2 [2]",             // the eager AppendEntries is lost
		"TimeoutHeartbeat n0",              // BUG(#2): AE sent where a snapshot is required
		"HandleAppendEntries 0->2 [2]",     // BUG(#1): node 2 keeps e1 yet advances commit
	}
	tr, err := scenario.Run(m, script)
	if err != nil {
		t.Fatal(err)
	}
	final := tr.Steps[len(tr.Steps)-1]
	if final.Vars["commit[2]"] != "1" {
		t.Fatalf("node 2 commit = %s, want 1 (the incorrectly advanced commit)", final.Vars["commit[2]"])
	}
	if final.Vars["log[2]"] == final.Vars["log[0]"] && final.Vars["snapshot[2]"] == final.Vars["snapshot[0]"] {
		t.Fatal("node 2's log should conflict with the leader's committed state")
	}
	// The committed-log invariants must reject the final state.
	violated := false
	for _, inv := range m.Invariants() {
		if inv.Name == "CommittedLogConsistency" || inv.Name == "LogDurability" {
			// Re-run the script to obtain the final state object.
			if err := checkFinalState(m, script, inv.Name); err != nil {
				violated = true
				if !strings.Contains(err.Error(), "committed") && !strings.Contains(err.Error(), "survives") {
					t.Errorf("unexpected violation message: %v", err)
				}
			}
		}
	}
	if !violated {
		t.Fatal("the Figure 7 chain must violate a committed-log invariant")
	}
}

// checkFinalState re-executes the script and applies one named invariant to
// the final state.
func checkFinalState(m *raftbase.Machine, script []string, invariant string) error {
	cur := m.Init()[0]
	for _, want := range script {
		for _, su := range m.AppendNext(cur, nil) {
			if s := su.Event.String(); s == want || strings.HasPrefix(s, want) {
				cur = su.State
				break
			}
		}
	}
	for _, inv := range m.Invariants() {
		if inv.Name == invariant {
			return inv.Check(cur)
		}
	}
	return nil
}
