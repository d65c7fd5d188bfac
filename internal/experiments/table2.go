package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/scenario"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Table2Row is one bug-detection result (the reproduction's Table 2).
type Table2Row struct {
	Bug bugdb.Info
	// Verification-stage metrics (zero for other stages).
	Time      time.Duration
	Depth     int
	States    int
	Invariant string
	Confirmed bool
	// Conformance-stage metrics: the walk at which the discrepancy/crash
	// surfaced and a one-line description.
	FoundAtWalk int
	Detail      string
	// Found reports whether the bug was detected at all.
	Found bool
}

// Table2 hunts every catalogued bug through the stage the paper found it
// at: verification bugs by bounded BFS plus implementation-level replay
// confirmation; conformance bugs by random-trace conformance checking
// against the buggy implementation; the modeling bug by a reachability
// query showing no leader is ever electable.
func Table2(o Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, info := range bugdb.Catalog {
		var row Table2Row
		var err error
		stop := o.Metrics.StartPhase("table2." + info.ID)
		switch info.Stage {
		case bugdb.StageVerification:
			row, err = detectVerification(info, o)
		case bugdb.StageConformance:
			row, err = detectConformance(info, o)
		case bugdb.StageModeling:
			row, err = detectModeling(info, o)
		}
		stop()
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", info.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func detectVerification(info bugdb.Info, o Options) (Table2Row, error) {
	row := Table2Row{Bug: info}
	d, ok := Detections[info.ID]
	if !ok {
		return row, fmt.Errorf("no detection setup")
	}
	st, err := session(info.System, d)
	if err != nil {
		return row, err
	}
	res := st.Check(checkOptions(o))
	v := res.FirstViolation()
	if v == nil {
		row.Detail = fmt.Sprintf("not found (%d states, %s)", res.DistinctStates, res.StopReason)
		return row, nil
	}
	row.Found = true
	row.Time = res.Duration
	row.Depth = v.Depth
	row.States = res.DistinctStates
	row.Invariant = v.Invariant
	row.Detail = v.Err.Error()
	// §3.4: confirm at the implementation level by deterministic replay.
	conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
	if err != nil {
		return row, err
	}
	row.Confirmed = conf.Confirmed
	return row, nil
}

// detectConformance runs conformance rounds with the defect present in the
// implementation only, the way the by-product bugs surfaced while aligning
// the spec (§3.2). CRaft#3 needs its triggering situation (a snapshot
// repairing a conflicting log) steered into deliberately, so its trace is
// produced by goal-directed exploration instead of random walks.
func detectConformance(info bugdb.Info, o Options) (Table2Row, error) {
	if info.Key == bugdb.CRaftSnapshotReject {
		return detectSnapshotReject(info, o)
	}
	row := Table2Row{Bug: info}
	sys, err := integrations.Get(info.System)
	if err != nil {
		return row, err
	}
	st := sandtable.New(sys, cfg(3), huntBudget(), bugdb.NoBugs())
	st.ImplBugs = bugdb.NoBugs().With(info.Key)
	walks := o.ConformanceWalks
	if walks <= 0 {
		walks = 2000
	}
	rep, err := st.Conform(conformance.Options{Walks: walks, WalkDepth: 40, Seed: 1})
	if err != nil {
		return row, err
	}
	if rep.Passed() {
		row.Detail = fmt.Sprintf("not found in %d walks", rep.Walks)
		return row, nil
	}
	row.Found = true
	row.FoundAtWalk = rep.Discrepancy.Walk
	var ce *engine.CrashError
	if errors.As(rep.Discrepancy.Step.Err, &ce) {
		row.Detail = fmt.Sprintf("impl crash at walk %d: %v", rep.Discrepancy.Walk, ce.Panic)
	} else {
		row.Detail = fmt.Sprintf("discrepancy at walk %d: %s", rep.Discrepancy.Walk,
			strings.SplitN(rep.Discrepancy.Step.Describe(), "\n", 2)[0])
	}
	return row, nil
}

// snapshotRejectScript is the directed scenario for CRaft#3: node 2 leads
// term 1 and appends locally; node 0 takes over in term 2, commits and
// compacts; its snapshot transfer then reaches node 2, whose conflicting
// local entry the snapshot must repair — the exact install the buggy
// implementation rejects.
var snapshotRejectScript = []string{
	"TimeoutElection n2",
	"HandleRequestVote 2->0",
	"HandleRequestVoteResponse 0->2", // node 2 leads term 1
	`ClientRequest n2 "v1"`,          // appended at node 2 only
	"TimeoutElection n0",
	"HandleRequestVote 0->1",
	"HandleRequestVoteResponse 1->0", // node 0 leads term 2
	`ClientRequest n0 "v1"`,
	"HandleAppendEntries 0->1 [1]",     // replicate to node 1
	"HandleAppendEntriesResponse 1->0", // commit
	"CompactLog n0",                    // entry 1 compacted into a snapshot
	"DropMessage 0->2 [2]",             // the eager AppendEntries is lost (UDP)
	"TimeoutHeartbeat n0",              // next[2] <= snapIdx: snapshot sent
	"HandleSnapshot 0->2 [2]",          // install over the conflicting log
}

// detectSnapshotReject steers a specification trace into the situation
// CRaft#3 mishandles — a snapshot transfer repairing a follower whose local
// log conflicts — and replays it against the buggy implementation, which
// diverges at the installation step (the follower keeps lagging behind
// until the next snapshot, exactly the paper's consequence).
func detectSnapshotReject(info bugdb.Info, o Options) (Table2Row, error) {
	row := Table2Row{Bug: info}
	sys, err := integrations.Get(info.System)
	if err != nil {
		return row, err
	}
	budget := spec.Budget{Name: "snap3", MaxTimeouts: 3, MaxRequests: 2, MaxDrops: 1, MaxBuffer: 3, MaxCompactions: 1}
	m := sys.NewMachine(cfgW1(3), budget, bugdb.NoBugs())
	tr, err := scenario.Run(m, snapshotRejectScript)
	if err != nil {
		return row, err
	}
	cluster, err := sys.NewCluster(cfgW1(3), bugdb.NoBugs().With(info.Key), 1)
	if err != nil {
		return row, err
	}
	rep, err := replay.Run(tr, cluster, replay.Options{CompareEachStep: true})
	if err != nil {
		return row, err
	}
	if rep.Divergence == nil {
		row.Detail = "replay conformed: defect not observable"
		return row, nil
	}
	row.Found = true
	row.Detail = fmt.Sprintf("directed trace (depth %d): %s", tr.Depth(),
		strings.SplitN(rep.Divergence.Describe(), "\n", 2)[0])
	return row, nil
}

// detectModeling demonstrates CRaft#9 the way the paper's authors hit it
// while writing the spec: with the defect in the implementation, no leader
// can ever be elected — visible as an unreachable goal when exploring an
// implementation-faithful model. We replay spec election traces against the
// buggy implementation; the election outcome diverges immediately.
func detectModeling(info bugdb.Info, o Options) (Table2Row, error) {
	row := Table2Row{Bug: info}
	sys, err := integrations.Get(info.System)
	if err != nil {
		return row, err
	}
	st := sandtable.New(sys, cfg(3), spec.Budget{Name: "elect", MaxTimeouts: 2, MaxBuffer: 4}, bugdb.NoBugs())
	st.ImplBugs = bugdb.NoBugs().With(info.Key)
	rep, err := st.Conform(conformance.Options{Walks: 200, WalkDepth: 15, Seed: 1})
	if err != nil {
		return row, err
	}
	if rep.Passed() {
		row.Detail = "not found: implementation elections match the model"
		return row, nil
	}
	row.Found = true
	row.FoundAtWalk = rep.Discrepancy.Walk
	row.Detail = fmt.Sprintf("model/impl divergence at walk %d: %s", rep.Discrepancy.Walk,
		strings.SplitN(rep.Discrepancy.Step.Describe(), "\n", 2)[0])
	return row, nil
}

// FormatTable2 renders the rows next to the paper's reported numbers.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: bug detection effectiveness and efficiency (measured vs paper)\n")
	fmt.Fprintf(&b, "%-12s %-12s %-6s %8s %6s %10s   %-8s %7s %10s  %s\n",
		"ID", "Stage", "Found", "Time", "Depth", "States", "P.Time", "P.Depth", "P.States", "Consequence")
	for _, r := range rows {
		found := "yes"
		if !r.Found {
			found = "NO"
		}
		if r.Bug.Stage == bugdb.StageVerification && r.Found {
			conf := ""
			if r.Confirmed {
				conf = "+confirmed"
			}
			fmt.Fprintf(&b, "%-12s %-12s %-6s %8s %6d %10d   %-8s %7d %10d  %s %s\n",
				r.Bug.ID, r.Bug.Stage, found, fmtDuration(r.Time), r.Depth, r.States,
				r.Bug.PaperTime, r.Bug.PaperDepth, r.Bug.PaperStates, r.Bug.Consequence, conf)
		} else {
			fmt.Fprintf(&b, "%-12s %-12s %-6s %8s %6s %10s   %-8s %7s %10s  %s (%s)\n",
				r.Bug.ID, r.Bug.Stage, found, "-", "-", "-", "-", "-", "-", r.Bug.Consequence, r.Detail)
		}
	}
	return b.String()
}

// Table2Single runs one catalogued bug's detection (exported for targeted
// runs and tests).
func Table2Single(info bugdb.Info, o Options) (Table2Row, error) {
	switch info.Stage {
	case bugdb.StageConformance:
		return detectConformance(info, o)
	case bugdb.StageModeling:
		return detectModeling(info, o)
	default:
		return detectVerification(info, o)
	}
}
