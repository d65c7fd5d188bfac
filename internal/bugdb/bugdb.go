// Package bugdb catalogues the 23 defects from Table 2 of the paper. Every
// target system in this repository carries its paper bugs behind flags: the
// default ("buggy") build reproduces the defect mechanisms the paper
// describes, and the fixed build disables them, which is what fix validation
// (§3.4) re-checks. The registry also records the paper's measured
// time/depth/states per bug so EXPERIMENTS.md can print paper-vs-measured
// rows.
package bugdb

// Key identifies one defect mechanism inside an implementation and its
// specification.
type Key string

// GoSyncObj (PySyncObj analogue) defects.
const (
	GSODisconnectCrash    Key = "gosyncobj.disconnect-crash"    // #1
	GSOCommitNonMonotonic Key = "gosyncobj.commit-nonmonotonic" // #2
	GSONextLEMatch        Key = "gosyncobj.next-le-match"       // #3
	GSOMatchNonMonotonic  Key = "gosyncobj.match-nonmonotonic"  // #4
	GSOCommitOldTerm      Key = "gosyncobj.commit-old-term"     // #5
)

// CRaft (WRaft analogue) defects; RedisRaft and DaosRaft are downstream.
const (
	CRaftFirstEntryAppend    Key = "craft.first-entry-append"     // #1
	CRaftAEInsteadOfSnapshot Key = "craft.ae-instead-of-snapshot" // #2
	CRaftSnapshotReject      Key = "craft.snapshot-reject"        // #3
	CRaftTermNonMonotonic    Key = "craft.term-nonmonotonic"      // #4
	CRaftEmptyRetry          Key = "craft.empty-retry"            // #5
	CRaftBufferLeak          Key = "craft.buffer-leak"            // #6
	CRaftNextLEMatch         Key = "craft.next-le-match"          // #7
	CRaftHeartbeatBreak      Key = "craft.heartbeat-break"        // #8
	CRaftWrongTermRead       Key = "craft.wrong-term-read"        // #9
)

// DaosRaft defect (PreVote extension).
const (
	DaosLeaderVotes Key = "daosraft.leader-votes" // #1
)

// AsyncRaft (RaftOS analogue) defects.
const (
	ARMatchNonMonotonic Key = "asyncraft.match-nonmonotonic" // #1
	ARLogErase          Key = "asyncraft.log-erase"          // #2
	ARMissingKeyCrash   Key = "asyncraft.missing-key-crash"  // #3
	ARCommitLoopBreak   Key = "asyncraft.commit-loop-break"  // #4
)

// Xraft defects.
const (
	XRaftStaleVotes    Key = "xraft.stale-votes"    // #1
	XRaftConcurrentMap Key = "xraft.concurrent-map" // #2
)

// Xraft-KV defect.
const (
	XKVStaleRead Key = "xraftkv.stale-read" // #1
)

// ZabKeeper (ZooKeeper analogue) defect.
const (
	ZabVoteOrder Key = "zabkeeper.vote-order" // #1 (ZOOKEEPER-1419 analogue)
)

// Extension defects beyond the paper's Table 2. These are reachable only
// under the crash-consistency fault model (spec.Budget.MaxDirtyCrashes > 0
// plus a buffered engine store), so they are NOT part of Catalog,
// ForSystem, or the All/Verification bug sets — enable them explicitly
// with Set.With or the CLI's -bug flag.
const (
	// GSOUnsyncedLog: persistLog writes the log without fsync; a dirty
	// crash between the write and the next hard-state sync loses committed
	// entries (LogDurability violation).
	GSOUnsyncedLog Key = "gosyncobj.unsynced-log" // GoSyncObj#6 (extension)
)

// Extensions lists the extension rows in the Table 2 format.
var Extensions = []Info{
	{ID: "GoSyncObj#6", PaperID: "-", System: "gosyncobj", Key: GSOUnsyncedLog, Stage: StageVerification, Status: "New", Consequence: "Committed log entries lost by a dirty crash", Invariant: "LogDurability"},
}

// Set is the collection of defects enabled in a build of a system. The
// paper's workflow checks the buggy build, confirms bugs, then validates the
// fixed build.
type Set map[Key]bool

// Has reports whether the defect is enabled (present, i.e. NOT fixed).
func (s Set) Has(k Key) bool { return s[k] }

// Without returns a copy of the set with the given defects fixed.
func (s Set) Without(keys ...Key) Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// With returns a copy of the set with the given defects enabled.
func (s Set) With(keys ...Key) Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v
	}
	for _, k := range keys {
		out[k] = true
	}
	return out
}

// Stage is the workflow stage at which a bug is found (Table 2's "Stage").
type Stage string

// Stages.
const (
	StageVerification Stage = "Verification" // found by model checking
	StageConformance  Stage = "Conformance"  // found while conformance checking
	StageModeling     Stage = "Modeling"     // found while writing the spec
)

// Info is one Table 2 row.
type Info struct {
	ID          string // e.g. "GoSyncObj#4"
	PaperID     string // e.g. "PySyncObj#4"
	System      string
	Key         Key
	Stage       Stage
	Status      string // "New" or "Old"
	Consequence string
	// Invariant is the safety property whose violation detects the bug
	// (empty for conformance/modeling-stage bugs).
	Invariant string
	// Paper-reported cost to hit the bug (scaled-down runs are compared
	// against these in EXPERIMENTS.md). Zero values mean "-" in Table 2.
	PaperTime   string
	PaperDepth  int
	PaperStates int
}

// Catalog lists every Table 2 row in paper order.
var Catalog = []Info{
	{ID: "GoSyncObj#1", PaperID: "PySyncObj#1", System: "gosyncobj", Key: GSODisconnectCrash, Stage: StageConformance, Status: "New", Consequence: "Unhandled exception during disconnection"},
	{ID: "GoSyncObj#2", PaperID: "PySyncObj#2", System: "gosyncobj", Key: GSOCommitNonMonotonic, Stage: StageVerification, Status: "New", Consequence: "Commit index is not monotonic", Invariant: "NoFlaggedViolation", PaperTime: "6s", PaperDepth: 13, PaperStates: 93713},
	{ID: "GoSyncObj#3", PaperID: "PySyncObj#3", System: "gosyncobj", Key: GSONextLEMatch, Stage: StageVerification, Status: "New", Consequence: "Next index <= match index", Invariant: "NextIndexAfterMatchIndex", PaperTime: "7s", PaperDepth: 18, PaperStates: 189725},
	{ID: "GoSyncObj#4", PaperID: "PySyncObj#4", System: "gosyncobj", Key: GSOMatchNonMonotonic, Stage: StageVerification, Status: "New", Consequence: "Match index is not monotonic", Invariant: "NoFlaggedViolation", PaperTime: "35s", PaperDepth: 25, PaperStates: 1512679},
	{ID: "GoSyncObj#5", PaperID: "PySyncObj#5", System: "gosyncobj", Key: GSOCommitOldTerm, Stage: StageVerification, Status: "New", Consequence: "Leader commits log entries of older terms", Invariant: "NoFlaggedViolation", PaperTime: "2min", PaperDepth: 14, PaperStates: 2364779},
	{ID: "CRaft#1", PaperID: "WRaft#1", System: "craft", Key: CRaftFirstEntryAppend, Stage: StageVerification, Status: "New", Consequence: "Incorrectly appending log entries", Invariant: "LogMatching", PaperTime: "9min", PaperDepth: 22, PaperStates: 5954049},
	{ID: "CRaft#2", PaperID: "WRaft#2", System: "craft", Key: CRaftAEInsteadOfSnapshot, Stage: StageVerification, Status: "Old", Consequence: "Inconsistent committed log", Invariant: "CommittedLogConsistency", PaperTime: "22min", PaperDepth: 20, PaperStates: 20955790},
	{ID: "CRaft#3", PaperID: "WRaft#3", System: "craft", Key: CRaftSnapshotReject, Stage: StageConformance, Status: "New", Consequence: "Follower lagging behind until next snapshot"},
	{ID: "CRaft#4", PaperID: "WRaft#4", System: "craft", Key: CRaftTermNonMonotonic, Stage: StageVerification, Status: "Old", Consequence: "Current term is not monotonic", Invariant: "NoFlaggedViolation", PaperTime: "39min", PaperDepth: 23, PaperStates: 48338241},
	{ID: "CRaft#5", PaperID: "WRaft#5", System: "craft", Key: CRaftEmptyRetry, Stage: StageVerification, Status: "New", Consequence: "Retry messages include empty logs", Invariant: "NoFlaggedViolation", PaperTime: "11min", PaperDepth: 24, PaperStates: 10576917},
	{ID: "CRaft#6", PaperID: "WRaft#6", System: "craft", Key: CRaftBufferLeak, Stage: StageConformance, Status: "Old", Consequence: "Memory leak"},
	{ID: "CRaft#7", PaperID: "WRaft#7", System: "craft", Key: CRaftNextLEMatch, Stage: StageVerification, Status: "New", Consequence: "Next index <= match index", Invariant: "NextIndexAfterMatchIndex", PaperTime: "8min", PaperDepth: 23, PaperStates: 7401586},
	{ID: "CRaft#8", PaperID: "WRaft#8", System: "craft", Key: CRaftHeartbeatBreak, Stage: StageConformance, Status: "New", Consequence: "Prematurely stopping sending heartbeats"},
	{ID: "CRaft#9", PaperID: "WRaft#9", System: "craft", Key: CRaftWrongTermRead, Stage: StageModeling, Status: "Old", Consequence: "Cannot elect leaders due to incorrectly getting term"},
	{ID: "DaosRaft#1", PaperID: "DaosRaft#1", System: "daosraft", Key: DaosLeaderVotes, Stage: StageVerification, Status: "New", Consequence: "Leader votes for others", Invariant: "LeaderVotesForSelf", PaperTime: "5s", PaperDepth: 8, PaperStates: 476},
	{ID: "AsyncRaft#1", PaperID: "RaftOS#1", System: "asyncraft", Key: ARMatchNonMonotonic, Stage: StageVerification, Status: "New", Consequence: "Match index is not monotonic", Invariant: "NoFlaggedViolation", PaperTime: "5s", PaperDepth: 10, PaperStates: 60101},
	{ID: "AsyncRaft#2", PaperID: "RaftOS#2", System: "asyncraft", Key: ARLogErase, Stage: StageVerification, Status: "New", Consequence: "Incorrectly erasing log entries", Invariant: "LogDurability", PaperTime: "4s", PaperDepth: 9, PaperStates: 19455},
	{ID: "AsyncRaft#3", PaperID: "RaftOS#3", System: "asyncraft", Key: ARMissingKeyCrash, Stage: StageConformance, Status: "New", Consequence: "Unhandled exception during receiving messages"},
	{ID: "AsyncRaft#4", PaperID: "RaftOS#4", System: "asyncraft", Key: ARCommitLoopBreak, Stage: StageVerification, Status: "New", Consequence: "Prematurely stopping checking commitment", Invariant: "NoFlaggedViolation", PaperTime: "4min", PaperDepth: 14, PaperStates: 16938773},
	{ID: "Xraft#1", PaperID: "Xraft#1", System: "xraft", Key: XRaftStaleVotes, Stage: StageVerification, Status: "New", Consequence: "More than one valid leader in the same term", Invariant: "AtMostOneLeaderPerTerm", PaperTime: "3s", PaperDepth: 8, PaperStates: 3534},
	{ID: "Xraft#2", PaperID: "Xraft#2", System: "xraft", Key: XRaftConcurrentMap, Stage: StageConformance, Status: "New", Consequence: "Unhandled concurrent modification exception"},
	{ID: "XraftKV#1", PaperID: "Xraft-KV#1", System: "xraftkv", Key: XKVStaleRead, Stage: StageVerification, Status: "New", Consequence: "Read operations do not satisfy linearizability", Invariant: "Linearizability", PaperTime: "15s", PaperDepth: 10, PaperStates: 124409},
	{ID: "ZabKeeper#1", PaperID: "ZooKeeper#1", System: "zabkeeper", Key: ZabVoteOrder, Stage: StageVerification, Status: "Old", Consequence: "Votes are not total ordered", Invariant: "VoteTotalOrder", PaperTime: "4min", PaperDepth: 41, PaperStates: 7625160},
}

// ForSystem returns the catalog rows of one system.
func ForSystem(system string) []Info {
	var out []Info
	for _, b := range Catalog {
		if b.System == system {
			out = append(out, b)
		}
	}
	return out
}

// ByID returns the catalog (or extension) row with the given ID.
func ByID(id string) (Info, bool) {
	for _, b := range Catalog {
		if b.ID == id {
			return b, true
		}
	}
	for _, b := range Extensions {
		if b.ID == id {
			return b, true
		}
	}
	return Info{}, false
}

// upstream lists the defects a downstream fork inherits unfixed from its
// upstream library. RedisRaft fixed CRaft #2/#4/#6/#9 (the paper found
// WRaft's old bugs "resolved in DaosRaft and/or RedisRaft"; we model
// RedisRaft as the fork with those fixes); DaosRaft carries the upstream
// defects except the buffer leak and wrong-term read it patched, plus its
// own PreVote defect.
var upstream = map[string][]Key{
	"redisraft": {CRaftFirstEntryAppend, CRaftSnapshotReject, CRaftEmptyRetry, CRaftNextLEMatch, CRaftHeartbeatBreak},
	"daosraft":  {CRaftFirstEntryAppend, CRaftAEInsteadOfSnapshot, CRaftSnapshotReject, CRaftTermNonMonotonic, CRaftEmptyRetry, CRaftNextLEMatch, CRaftHeartbeatBreak},
}

// StageOf reports the workflow stage at which a defect key was found.
func StageOf(k Key) Stage {
	for _, b := range Catalog {
		if b.Key == k {
			return b.Stage
		}
	}
	for _, b := range Extensions {
		if b.Key == k {
			return b.Stage
		}
	}
	return StageVerification
}

// AllBugs returns the full buggy build for a system (every defect enabled,
// including defects inherited from an upstream library).
func AllBugs(system string) Set {
	s := make(Set)
	for _, b := range Catalog {
		if b.System == system {
			s[b.Key] = true
		}
	}
	for _, k := range upstream[system] {
		s[k] = true
	}
	return s
}

// VerificationBugs is the defect set after the conformance and modeling
// stages fixed their by-product findings: only the defects model checking
// hunts remain. This is the aligned state the paper's verification
// experiments run from, in both the specification and the implementation.
func VerificationBugs(system string) Set {
	s := make(Set)
	for k := range AllBugs(system) {
		if StageOf(k) == StageVerification {
			s[k] = true
		}
	}
	return s
}

// NoBugs returns the fully fixed build.
func NoBugs() Set { return make(Set) }
