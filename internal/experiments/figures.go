package experiments

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/scenario"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
)

// Figure6 reproduces the paper's Figure 6: the space-time diagram of the
// GoSyncObj#4 counterexample (non-monotonic match index), obtained from the
// minimal-depth BFS trace and rendered as an ASCII timing diagram.
func Figure6(o Options) (string, error) {
	d := Detections["GoSyncObj#4"]
	st, err := session("gosyncobj", d)
	if err != nil {
		return "", err
	}
	res := st.Check(checkOptions(o))
	v := res.FirstViolation()
	if v == nil {
		return "", fmt.Errorf("figure 6: GoSyncObj#4 not found")
	}
	head := fmt.Sprintf("Figure 6: GoSyncObj#4 — %v (depth %d, %d states)\n\n", v.Err, v.Depth, res.DistinctStates)
	return head + v.Trace.Diagram(d.Config.Nodes, nil) + "\n" + v.Trace.Format(false), nil
}

// figure7Script is the paper's Figure 7 event chain: node 2 leads term 1
// and appends e1 locally; node 0 takes over in term 2, commits e2 and
// compacts it into a snapshot; CRaft#2 then sends an AppendEntries where a
// snapshot transfer is required, and CRaft#1 makes node 2 accept it —
// keeping e1 yet advancing its commit index.
var figure7Script = []string{
	"TimeoutElection n2",
	"HandleRequestVote 2->0",
	"HandleRequestVoteResponse 0->2",
	`ClientRequest n2 "v1"`,
	"TimeoutElection n0",
	"HandleRequestVote 0->1",
	"HandleRequestVoteResponse 1->0",
	`ClientRequest n0 "v1"`,
	"HandleAppendEntries 0->1 [1]",
	"HandleAppendEntriesResponse 1->0",
	"CompactLog n0",
	"DropMessage 0->2 [2]",
	"TimeoutHeartbeat n0",
	"HandleAppendEntries 0->2 [2]",
}

// Figure7 reproduces the paper's Figure 7: the CRaft#1 + CRaft#2
// combination leading to inconsistent committed logs across the cluster
// after a snapshot-eliding AppendEntries. The chain is replayed through the
// specification as a directed scenario (TestFigure7ScenarioDirected asserts
// its invariant violations; the BFS hunt for the underlying defects is the
// Table 2 CRaft#1/#2 rows).
func Figure7(o Options) (string, error) {
	bugs := bugdb.NoBugs().With(bugdb.CRaftFirstEntryAppend, bugdb.CRaftAEInsteadOfSnapshot)
	m := raftbase.New(raftbase.Options{
		System:    "craft",
		Profile:   raftbase.CRaft,
		Transport: spec.UDP,
		Snapshots: true,
		Bugs:      bugs,
		Config:    cfgW1(3),
		Budget: spec.Budget{Name: "fig7", MaxTimeouts: 3, MaxRequests: 2,
			MaxDrops: 1, MaxBuffer: 3, MaxCompactions: 1},
		ContinuePastFlag: true,
	})
	tr, err := scenario.Run(m, figure7Script)
	if err != nil {
		return "", fmt.Errorf("figure 7: %w", err)
	}
	final := tr.Steps[len(tr.Steps)-1].Vars
	head := fmt.Sprintf("Figure 7: CRaft#1+#2 — node 2 committed %s up to index %s while the cluster committed %s (snapshot %s)\n\n",
		final["log[2]"], final["commit[2]"], final["log[0]"], final["snapshot[0]"])
	return head + tr.Diagram(3, nil) + "\n" + tr.Format(false), nil
}
