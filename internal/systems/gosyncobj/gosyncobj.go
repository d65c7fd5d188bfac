// Package gosyncobj is the PySyncObj analogue: a compact Raft library in the
// style of an object-replication framework, speaking JSON messages over TCP
// semantics.
//
// Like PySyncObj, it implements two unverified optimisations on top of basic
// Raft (the paper calls them out when describing PySyncObj#4):
//
//   - aggressive next-index advance: after sending AppendEntries the leader
//     optimistically sets the follower's next index past the entries sent,
//     so subsequent heartbeats carry only the newest entries;
//   - follower-provided next-index hints: AppendEntries responses carry the
//     follower's suggested next index (Inext) in both the success and the
//     reject case, and the leader adopts it directly.
//
// The package carries the five defects the paper found in PySyncObj (Table
// 2) behind bugdb flags; see the bug sites marked "BUG(...)" below.
package gosyncobj

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Role is the Raft role of a node.
type Role int

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Entry is one replicated log entry. Index is implicit: position+1.
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// Message is the wire format (all message kinds share one struct, like
// PySyncObj's dict-shaped messages).
type Message struct {
	Type      string  `json:"type"` // "rv", "rvr", "ae", "aer"
	Term      int     `json:"term"`
	LastIndex int     `json:"last_index,omitempty"` // rv: candidate last log index
	LastTerm  int     `json:"last_term,omitempty"`  // rv: candidate last log term
	Granted   bool    `json:"granted,omitempty"`    // rvr
	PrevIndex int     `json:"prev_index,omitempty"` // ae
	PrevTerm  int     `json:"prev_term,omitempty"`  // ae
	Entries   []Entry `json:"entries,omitempty"`    // ae
	Commit    int     `json:"commit,omitempty"`     // ae: leader commit
	Flag      bool    `json:"flag,omitempty"`       // aer: success flag
	NextIndex int     `json:"next_index,omitempty"` // aer: follower's Inext hint
}

// Timing constants: the engine's virtual clock advances past these to fire
// timers deterministically.
const (
	ElectionTimeout   = 100 * time.Millisecond
	HeartbeatInterval = 50 * time.Millisecond
)

// Node is one gosyncobj replica.
type Node struct {
	env  vos.Env
	bugs bugdb.Set

	role     Role
	term     int
	votedFor int
	log      []Entry
	commit   int

	votes map[int]bool
	next  []int
	match []int

	electionDeadline  time.Time
	heartbeatDeadline time.Time
}

// New constructs a replica with the given defect set (bugdb.AllBugs
// reproduces upstream PySyncObj; bugdb.NoBugs is the fixed build).
func New(bugs bugdb.Set) *Node {
	return &Node{bugs: bugs, votedFor: -1}
}

// Start implements vos.Process: initialise volatile state and reload the
// durable journal a previous incarnation persisted.
func (n *Node) Start(env vos.Env) {
	n.env = env
	n.role = Follower
	n.term = 0
	n.votedFor = -1
	n.log = nil
	n.commit = 0
	n.votes = nil
	n.next = nil
	n.match = nil
	n.loadDurable()
	n.electionDeadline = env.Now().Add(ElectionTimeout)
	env.Logf("started role=%s term=%d", n.role, n.term)
}

// persistHard writes and fsyncs the hard state (term, vote). The sync
// flushes the whole write journal, so a pending unsynced log write becomes
// durable here too.
func (n *Node) persistHard() {
	n.env.Persist("hard", []byte(fmt.Sprintf("%d:%d", n.term, n.votedFor)))
	n.env.Sync()
}

func (n *Node) persistLog() {
	b, err := json.Marshal(n.log)
	if err != nil {
		panic(fmt.Sprintf("gosyncobj: marshal log: %v", err))
	}
	n.env.Persist("log", b)
	if n.bugs.Has(bugdb.GSOUnsyncedLog) {
		// BUG(GoSyncObj#6, extension): the log write is left in the page
		// cache — no fsync. A dirty crash before the next hard-state sync
		// loses the entries, even ones the cluster already committed.
		return
	}
	n.env.Sync()
}

func (n *Node) loadDurable() {
	if b, ok := n.env.Load("hard"); ok {
		fmt.Sscanf(string(b), "%d:%d", &n.term, &n.votedFor)
	}
	if b, ok := n.env.Load("log"); ok {
		if err := json.Unmarshal(b, &n.log); err != nil {
			panic(fmt.Sprintf("gosyncobj: unmarshal log: %v", err))
		}
	}
}

func (n *Node) lastIndex() int { return len(n.log) }

func (n *Node) logTerm(index int) int {
	if index < 1 || index > len(n.log) {
		return 0
	}
	return n.log[index-1].Term
}

func (n *Node) quorum() int { return n.env.N()/2 + 1 }

func (n *Node) send(to int, m Message) {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("gosyncobj: marshal message: %v", err))
	}
	n.env.Send(to, b)
}

// Tick implements vos.Process: fire any timers that became due after the
// engine advanced the virtual clock.
func (n *Node) Tick() {
	now := n.env.Now()
	if n.role == Leader {
		if !now.Before(n.heartbeatDeadline) {
			n.broadcastAppendEntries()
			n.heartbeatDeadline = n.env.Now().Add(HeartbeatInterval)
		}
		return
	}
	if !now.Before(n.electionDeadline) {
		n.startElection()
		n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	}
}

func (n *Node) startElection() {
	n.role = Candidate
	n.term++
	n.votedFor = n.env.ID()
	n.persistHard()
	n.votes = map[int]bool{n.env.ID(): true}
	n.env.Logf("election started term=%d", n.term)
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		n.send(p, Message{Type: "rv", Term: n.term, LastIndex: n.lastIndex(), LastTerm: n.logTerm(n.lastIndex())})
	}
	n.maybeWinElection()
}

func (n *Node) maybeWinElection() {
	if n.role == Candidate && len(n.votes) >= n.quorum() {
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.votes = nil
	n.next = make([]int, n.env.N())
	n.match = make([]int, n.env.N())
	for p := range n.next {
		n.next[p] = n.lastIndex() + 1
	}
	n.match[n.env.ID()] = n.lastIndex()
	n.env.Logf("became leader term=%d", n.term)
	n.broadcastAppendEntries()
	n.heartbeatDeadline = n.env.Now().Add(HeartbeatInterval)
}

func (n *Node) broadcastAppendEntries() {
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		if !n.env.Connected(p) {
			if n.bugs.Has(bugdb.GSODisconnectCrash) {
				// BUG(GoSyncObj#1): the reconnect path dereferences the
				// connection object that the disconnect handler already
				// dropped — an unhandled exception crashes the node.
				var conn *struct{ retries int }
				conn.retries++ // nil dereference
			}
			continue
		}
		n.sendAppendEntries(p)
	}
}

func (n *Node) sendAppendEntries(p int) {
	ni := n.next[p]
	if ni < 1 {
		ni = 1
	}
	prev := ni - 1
	entries := append([]Entry(nil), n.log[min(prev, len(n.log)):]...)
	n.send(p, Message{
		Type:      "ae",
		Term:      n.term,
		PrevIndex: prev,
		PrevTerm:  n.logTerm(prev),
		Entries:   entries,
		Commit:    n.commit,
	})
	// Aggressive next-index advance: assume the entries will be accepted so
	// the next heartbeat sends only newer entries (PySyncObj optimisation).
	n.next[p] = n.lastIndex() + 1
}

// ClientRequest implements vos.Process: a leader appends the value to its
// log; replication happens on subsequent heartbeats.
func (n *Node) ClientRequest(payload string) {
	if n.role != Leader {
		n.env.Logf("client request rejected: not leader")
		return
	}
	n.log = append(n.log, Entry{Term: n.term, Value: payload})
	n.persistLog()
	n.match[n.env.ID()] = n.lastIndex()
	n.env.Logf("appended entry index=%d term=%d", n.lastIndex(), n.term)
}

// Receive implements vos.Process.
func (n *Node) Receive(from int, msg []byte) {
	var m Message
	if err := json.Unmarshal(msg, &m); err != nil {
		panic(fmt.Sprintf("gosyncobj: bad message from %d: %v", from, err))
	}
	switch m.Type {
	case "rv":
		n.handleRequestVote(from, m)
	case "rvr":
		n.handleRequestVoteResponse(from, m)
	case "ae":
		n.handleAppendEntries(from, m)
	case "aer":
		n.handleAppendEntriesResponse(from, m)
	default:
		panic(fmt.Sprintf("gosyncobj: unknown message type %q", m.Type))
	}
}

func (n *Node) stepDown(term int) {
	n.term = term
	n.role = Follower
	n.votedFor = -1
	n.votes = nil
	n.next = nil
	n.match = nil
	n.persistHard()
}

func (n *Node) handleRequestVote(from int, m Message) {
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	upToDate := m.LastTerm > n.logTerm(n.lastIndex()) ||
		(m.LastTerm == n.logTerm(n.lastIndex()) && m.LastIndex >= n.lastIndex())
	granted := m.Term == n.term && (n.votedFor == -1 || n.votedFor == from) && upToDate
	if granted {
		n.votedFor = from
		n.persistHard()
		n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	}
	n.send(from, Message{Type: "rvr", Term: n.term, Granted: granted})
}

func (n *Node) handleRequestVoteResponse(from int, m Message) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != Candidate || m.Term != n.term || !m.Granted {
		return
	}
	n.votes[from] = true
	n.maybeWinElection()
}

func (n *Node) handleAppendEntries(from int, m Message) {
	if m.Term < n.term {
		n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	if n.role != Follower {
		// A candidate (or stale leader) of the same term yields to the
		// established leader but keeps its vote.
		n.role = Follower
		n.votes = nil
		n.next, n.match = nil, nil
	}
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)

	// Consistency check on the previous entry.
	if m.PrevIndex > n.lastIndex() || (m.PrevIndex >= 1 && n.logTerm(m.PrevIndex) != m.PrevTerm) {
		n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}

	// Append, truncating on conflict.
	changed := false
	idx := m.PrevIndex
	for _, e := range m.Entries {
		idx++
		if idx <= n.lastIndex() {
			if n.logTerm(idx) != e.Term {
				n.log = n.log[:idx-1]
				n.log = append(n.log, e)
				changed = true
			}
			continue
		}
		n.log = append(n.log, e)
		changed = true
	}
	if changed {
		n.persistLog()
	}

	// Advance (or, buggily, regress) the commit index.
	leaderCommit := min(m.Commit, n.lastIndex())
	if n.bugs.Has(bugdb.GSOCommitNonMonotonic) {
		// BUG(GoSyncObj#2): the follower adopts the leader's commit index
		// unconditionally. A freshly elected leader whose own commit index
		// lags this follower's makes the commit index go backwards.
		n.commit = leaderCommit
	} else if leaderCommit > n.commit {
		n.commit = leaderCommit
	}

	// Reply with the follower's next-index hint (Inext): the highest index
	// this message confirmed, plus one.
	inext := m.PrevIndex + len(m.Entries) + 1
	if len(m.Entries) > 0 && (n.bugs.Has(bugdb.GSOMatchNonMonotonic) || n.bugs.Has(bugdb.GSONextLEMatch)) {
		// BUG(GoSyncObj#3/#4, shared root cause): off-by-one — when the
		// AppendEntries message carries entries the hint misses the +1. A
		// retransmission of already-synchronised entries then makes the
		// leader regress its replication state: the match index goes
		// backwards if assigned unguarded (#4, Figure 6), and the next
		// index falls to or below the match index (#3).
		inext--
	}
	n.send(from, Message{Type: "aer", Term: n.term, Flag: true, NextIndex: inext})
}

func (n *Node) handleAppendEntriesResponse(from int, m Message) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != Leader || m.Term < n.term {
		return
	}
	if m.Flag {
		// Success: adopt the follower's hint.
		nm := m.NextIndex - 1
		if n.bugs.Has(bugdb.GSOMatchNonMonotonic) {
			// BUG(GoSyncObj#4), leader side: the match index is assigned
			// without a monotonicity guard.
			n.match[from] = nm
		} else if nm > n.match[from] {
			n.match[from] = nm
		}
		if n.bugs.Has(bugdb.GSONextLEMatch) {
			// BUG(GoSyncObj#3): the next index is adopted from the (wrong)
			// hint without respecting the match index.
			n.next[from] = m.NextIndex
		} else {
			n.next[from] = max(m.NextIndex, n.match[from]+1)
		}
	} else {
		// Rejected: reset the next index to the follower's hint.
		if n.bugs.Has(bugdb.GSONextLEMatch) {
			n.next[from] = m.NextIndex
		} else {
			n.next[from] = max(m.NextIndex, n.match[from]+1)
		}
	}
	n.advanceCommit()
}

// advanceCommit recomputes the leader commit index from the match indexes.
func (n *Node) advanceCommit() {
	matches := append([]int(nil), n.match...)
	matches[n.env.ID()] = n.lastIndex()
	sort.Ints(matches)
	// The quorum-th highest match index is replicated on a majority.
	candidate := matches[n.env.N()-n.quorum()]
	if candidate <= n.commit {
		return
	}
	if !n.bugs.Has(bugdb.GSOCommitOldTerm) {
		// Raft commitment rule: only entries of the current term may be
		// committed by counting replicas.
		if n.logTerm(candidate) != n.term {
			return
		}
	}
	// BUG(GoSyncObj#5): with the flag on, the term check above is skipped
	// and the leader commits entries created by older leaders.
	n.commit = candidate
	n.env.Logf("commit advanced to %d", n.commit)
}

// fields are the variables Observe renders, in the order it writes them.
var fields = []string{"role", "term", "votedFor", "log", "commit", "next", "match", "votes"}

// Fields implements vos.Process.
func (n *Node) Fields() []string { return fields }

// Observe implements vos.Process: render the variables compared during
// conformance checking, in the order of Fields. The rendering must match the
// specification's VarSlots.
func (n *Node) Observe(dst []string) {
	dst[0] = n.role.String()
	dst[1] = strconv.Itoa(n.term)
	dst[2] = strconv.Itoa(n.votedFor)
	dst[3] = trace.Log(n.log)
	dst[4] = strconv.Itoa(n.commit)
	if n.role == Leader {
		dst[5] = trace.PeerRow(n.next, n.env.ID())
		dst[6] = trace.PeerRow(n.match, n.env.ID())
	} else {
		dst[5], dst[6] = "-", "-"
	}
	if n.role == Candidate {
		dst[7] = trace.IDSet(trace.MapIDs(n.votes))
	} else {
		dst[7] = "-"
	}
}
