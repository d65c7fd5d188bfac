// Package craft is the WRaft analogue: a C-style Raft library with log
// compaction and snapshot transfer, designed for UDP-like transports (no
// delivery guarantees assumed). Downstream systems embed it the way
// RedisRaft and DaosRaft embed WRaft: RedisRaft (TCP, PreVote, several
// upstream defects fixed) and DaosRaft (TCP, PreVote with its own defect).
//
// The package carries the nine WRaft defects and the DaosRaft PreVote
// defect from Table 2 behind bugdb flags; see the "BUG(...)" sites.
package craft

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Role is the node role.
type Role int

// Roles.
const (
	Follower Role = iota
	PreCandidate
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	case PreCandidate:
		return "precandidate"
	default:
		return "follower"
	}
}

// Entry is one log entry; indexes are absolute (snapshot-aware).
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// Message is the wire format.
type Message struct {
	Type      string  `json:"type"` // "rv", "rvr", "ae", "aer", "snap"
	Term      int     `json:"term"`
	Pre       bool    `json:"pre,omitempty"`
	LastIndex int     `json:"last_index,omitempty"`
	LastTerm  int     `json:"last_term,omitempty"`
	Granted   bool    `json:"granted,omitempty"`
	PrevIndex int     `json:"prev_index,omitempty"`
	PrevTerm  int     `json:"prev_term,omitempty"`
	Entries   []Entry `json:"entries,omitempty"`
	Commit    int     `json:"commit,omitempty"`
	Flag      bool    `json:"flag,omitempty"`
	NextIndex int     `json:"next_index,omitempty"`
	Retry     bool    `json:"retry,omitempty"`
	SnapIndex int     `json:"snap_index,omitempty"`
	SnapTerm  int     `json:"snap_term,omitempty"`
}

// Timer constants, fired by the engine's virtual-clock advancement.
const (
	ElectionTimeout   = 100 * time.Millisecond
	HeartbeatInterval = 50 * time.Millisecond
)

// Options configure a node: the downstream fork knobs.
type Options struct {
	PreVote bool
	Bugs    bugdb.Set
}

// Node is one craft replica.
type Node struct {
	env vos.Env
	opt Options

	role     Role
	term     int
	votedFor int
	log      []Entry // entries after snapIdx
	snapIdx  int
	snapTerm int
	commit   int

	votes    map[int]bool
	prevotes map[int]bool
	next     []int
	match    []int

	electionDeadline  time.Time
	heartbeatDeadline time.Time

	// allocBuffers counts live receive buffers; BUG(CRaft#6) forgets to
	// release one on the AppendEntries rejection path, which the
	// conformance resource check observes as a leak.
	allocBuffers int
}

// New constructs a replica.
func New(opt Options) *Node { return &Node{opt: opt, votedFor: -1} }

// Allocs reports the number of live receive buffers (leak detection).
func (n *Node) Allocs() int { return n.allocBuffers }

func (n *Node) bug(k bugdb.Key) bool { return n.opt.Bugs.Has(k) }

// Start implements vos.Process.
func (n *Node) Start(env vos.Env) {
	n.env = env
	n.role = Follower
	n.term = 0
	n.votedFor = -1
	n.log = nil
	n.snapIdx, n.snapTerm = 0, 0
	n.commit = 0
	n.votes, n.prevotes = nil, nil
	n.next, n.match = nil, nil
	n.allocBuffers = 0
	n.loadDurable()
	n.electionDeadline = env.Now().Add(ElectionTimeout)
	env.Logf("started role=%s term=%d snap=%d@%d", n.role, n.term, n.snapIdx, n.snapTerm)
}

type durable struct {
	Term     int     `json:"term"`
	VotedFor int     `json:"voted_for"`
	Log      []Entry `json:"log"`
	SnapIdx  int     `json:"snap_idx"`
	SnapTerm int     `json:"snap_term"`
}

func (n *Node) persist() {
	b, err := json.Marshal(durable{Term: n.term, VotedFor: n.votedFor, Log: n.log, SnapIdx: n.snapIdx, SnapTerm: n.snapTerm})
	if err != nil {
		panic(fmt.Sprintf("craft: marshal durable: %v", err))
	}
	n.env.Persist("raft", b)
}

func (n *Node) loadDurable() {
	b, ok := n.env.Load("raft")
	if !ok {
		return
	}
	var d durable
	if err := json.Unmarshal(b, &d); err != nil {
		panic(fmt.Sprintf("craft: unmarshal durable: %v", err))
	}
	n.term, n.votedFor, n.log, n.snapIdx, n.snapTerm = d.Term, d.VotedFor, d.Log, d.SnapIdx, d.SnapTerm
}

// Log helpers (absolute indexing).

func (n *Node) lastIndex() int { return n.snapIdx + len(n.log) }

func (n *Node) logTerm(abs int) int {
	switch {
	case abs == n.snapIdx:
		return n.snapTerm
	case abs > n.snapIdx && abs <= n.lastIndex():
		return n.log[abs-n.snapIdx-1].Term
	default:
		return 0
	}
}

func (n *Node) entriesFrom(from int) []Entry {
	if from <= n.snapIdx {
		from = n.snapIdx + 1
	}
	if from > n.lastIndex() {
		return nil
	}
	return append([]Entry(nil), n.log[from-n.snapIdx-1:]...)
}

func (n *Node) truncateTo(abs int) {
	if abs < n.snapIdx {
		abs = n.snapIdx
	}
	n.log = n.log[:abs-n.snapIdx]
}

func (n *Node) quorum() int { return n.env.N()/2 + 1 }

func (n *Node) send(to int, m Message) {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("craft: marshal message: %v", err))
	}
	n.env.Send(to, b)
}

// Tick implements vos.Process.
func (n *Node) Tick() {
	now := n.env.Now()
	if n.role == Leader {
		if !now.Before(n.heartbeatDeadline) {
			n.broadcastAppend()
			n.heartbeatDeadline = n.env.Now().Add(HeartbeatInterval)
		}
		return
	}
	if !now.Before(n.electionDeadline) {
		if n.opt.PreVote {
			n.startPreVote()
		} else {
			n.startElection()
		}
		n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	}
}

func (n *Node) startPreVote() {
	n.role = PreCandidate
	n.prevotes = map[int]bool{n.env.ID(): true}
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		n.send(p, Message{Type: "rv", Term: n.term + 1, Pre: true, LastIndex: n.lastIndex(), LastTerm: n.logTerm(n.lastIndex())})
	}
	n.maybeWinPreVote()
}

func (n *Node) startElection() {
	n.role = Candidate
	n.term++
	n.votedFor = n.env.ID()
	n.prevotes = nil
	n.persist()
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

func (n *Node) maybeWinPreVote() {
	if n.role == PreCandidate && len(n.prevotes) >= n.quorum() {
		n.startElection()
	}
}

func (n *Node) maybeWinElection() {
	if n.role == Candidate && len(n.votes) >= n.quorum() {
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.votes, n.prevotes = nil, nil
	n.next = make([]int, n.env.N())
	n.match = make([]int, n.env.N())
	for p := range n.next {
		n.next[p] = n.lastIndex() + 1
	}
	n.match[n.env.ID()] = n.lastIndex()
	n.env.Logf("became leader term=%d", n.term)
	n.broadcastAppend()
	n.heartbeatDeadline = n.env.Now().Add(HeartbeatInterval)
}

func (n *Node) stepDown(term int) {
	n.term = term
	n.role = Follower
	n.votedFor = -1
	n.votes, n.prevotes = nil, nil
	n.next, n.match = nil, nil
	n.persist()
}

func (n *Node) yieldToLeader() {
	if n.role != Follower {
		n.role = Follower
		n.votes, n.prevotes = nil, nil
		n.next, n.match = nil, nil
	}
}

func (n *Node) broadcastAppend() {
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		if !n.env.Connected(p) {
			if n.bug(bugdb.CRaftHeartbeatBreak) {
				// BUG(CRaft#8): a sending failure aborts the whole
				// broadcast loop, so peers after the failed one silently
				// stop receiving heartbeats.
				break
			}
			continue
		}
		n.sendAppend(p, false)
	}
}

func (n *Node) sendAppend(p int, retry bool) {
	ni := n.next[p]
	if ni < 1 {
		ni = 1
	}
	if ni <= n.snapIdx {
		if n.bug(bugdb.CRaftAEInsteadOfSnapshot) {
			// BUG(CRaft#2): the compacted case falls through to the
			// AppendEntries path; the message carries no entries but still
			// advertises the leader's commit index (Figure 7).
			n.send(p, Message{Type: "ae", Term: n.term, PrevIndex: ni - 1, PrevTerm: n.logTerm(ni - 1), Commit: n.commit, Retry: retry})
			return
		}
		n.send(p, Message{Type: "snap", Term: n.term, SnapIndex: n.snapIdx, SnapTerm: n.snapTerm})
		n.next[p] = n.snapIdx + 1
		return
	}
	prev := ni - 1
	entries := n.entriesFrom(ni)
	n.send(p, Message{Type: "ae", Term: n.term, PrevIndex: prev, PrevTerm: n.logTerm(prev), Entries: entries, Commit: n.commit, Retry: retry})
}

// ClientRequest implements vos.Process. The "!compact" admin command
// triggers log compaction (the operator-driven snapshot of real
// deployments); anything else is a value to replicate.
func (n *Node) ClientRequest(payload string) {
	if n.role != Leader {
		n.env.Logf("client request rejected: not leader")
		return
	}
	if payload == "!compact" {
		n.compact()
		return
	}
	n.log = append(n.log, Entry{Term: n.term, Value: payload})
	n.persist()
	n.match[n.env.ID()] = n.lastIndex()
	n.env.Logf("appended entry index=%d term=%d", n.lastIndex(), n.term)
	// Eager replication on entry receipt (WRaft's raft_recv_entry).
	n.broadcastAppend()
}

func (n *Node) compact() {
	if n.commit <= n.snapIdx {
		return
	}
	c := n.commit
	n.snapTerm = n.logTerm(c)
	n.log = append([]Entry(nil), n.log[c-n.snapIdx:]...)
	n.snapIdx = c
	n.persist()
	n.env.Logf("compacted to snapshot %d@%d", n.snapIdx, n.snapTerm)
}

// Receive implements vos.Process.
func (n *Node) Receive(from int, msg []byte) {
	var m Message
	if err := json.Unmarshal(msg, &m); err != nil {
		panic(fmt.Sprintf("craft: bad message from %d: %v", from, err))
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
	case "snap":
		n.handleSnapshot(from, m)
	default:
		panic(fmt.Sprintf("craft: unknown message type %q", m.Type))
	}
}

func (n *Node) handleRequestVote(from int, m Message) {
	if m.Pre {
		n.handlePreVoteRequest(from, m)
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	last := n.lastIndex()
	upToDate := m.LastTerm > n.logTerm(last) ||
		(m.LastTerm == n.logTerm(last) && m.LastIndex >= last)
	granted := m.Term == n.term && (n.votedFor == -1 || n.votedFor == from) && upToDate
	if granted {
		n.votedFor = from
		n.persist()
		n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	}
	replyTerm := n.term
	if n.bug(bugdb.CRaftWrongTermRead) {
		// BUG(CRaft#9): the reply reads the term from the last log entry
		// instead of the current term, so candidates can never match the
		// response to their election and no leader is ever elected. (The
		// paper found this while modeling the system.)
		replyTerm = n.logTerm(n.lastIndex())
	}
	n.send(from, Message{Type: "rvr", Term: replyTerm, Granted: granted})
}

func (n *Node) handlePreVoteRequest(from int, m Message) {
	granted := m.Term >= n.term
	if granted {
		last := n.lastIndex()
		granted = m.LastTerm > n.logTerm(last) ||
			(m.LastTerm == n.logTerm(last) && m.LastIndex >= last)
	}
	if granted && n.role == Leader && !n.bug(bugdb.DaosLeaderVotes) {
		// A live leader suppresses disruptive candidates by rejecting
		// pre-votes. BUG(DaosRaft#1): with the flag on the check is
		// missing and the leader votes for its own competitor.
		granted = false
	}
	n.send(from, Message{Type: "rvr", Term: n.term, Pre: true, Granted: granted})
}

func (n *Node) handleRequestVoteResponse(from int, m Message) {
	if m.Pre {
		if m.Term > n.term && !m.Granted {
			n.stepDown(m.Term)
			return
		}
		if n.role != PreCandidate || !m.Granted {
			return
		}
		n.prevotes[from] = true
		n.maybeWinPreVote()
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != Candidate || !m.Granted {
		return
	}
	if m.Term != n.term {
		return
	}
	n.votes[from] = true
	n.maybeWinElection()
}

func (n *Node) handleAppendEntries(from int, m Message) {
	n.allocBuffers++ // receive buffer for the entry batch
	if m.Term < n.term {
		n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		n.releaseBuffer(true)
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	n.yieldToLeader()
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)

	if m.PrevIndex > n.lastIndex() ||
		(m.PrevIndex >= 1 && m.PrevIndex > n.snapIdx && n.logTerm(m.PrevIndex) != m.PrevTerm) {
		if !(m.PrevIndex == 0 && n.bug(bugdb.CRaftFirstEntryAppend)) {
			n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
			n.releaseBuffer(true)
			return
		}
	}

	skipConflictCheck := m.PrevIndex == 0 && n.bug(bugdb.CRaftFirstEntryAppend)
	changed := false
	idx := m.PrevIndex
	for _, e := range m.Entries {
		idx++
		if idx <= n.lastIndex() {
			if idx <= n.snapIdx || skipConflictCheck {
				// BUG(CRaft#1): with the flag on, the first-entry special
				// case skips the conflict check: existing conflicting
				// entries survive.
				continue
			}
			if n.logTerm(idx) != e.Term {
				n.truncateTo(idx - 1)
				n.log = append(n.log, e)
				changed = true
			}
			continue
		}
		n.log = append(n.log, e)
		changed = true
	}
	if changed {
		n.persist()
	}

	var leaderCommit int
	if n.bug(bugdb.CRaftFirstEntryAppend) {
		// BUG(CRaft#1), commit half: the cap uses the local log length
		// instead of the indices this message accounted for, so the
		// follower commits entries the leader never confirmed it has
		// (Figure 7's incorrect commit advance).
		leaderCommit = min(m.Commit, n.lastIndex())
	} else {
		leaderCommit = min(m.Commit, m.PrevIndex+len(m.Entries))
	}
	if leaderCommit > n.commit {
		n.commit = leaderCommit
		n.env.Logf("commit advanced to %d", n.commit)
	}

	n.send(from, Message{Type: "aer", Term: n.term, Flag: true, NextIndex: m.PrevIndex + len(m.Entries) + 1})
	n.releaseBuffer(false)
}

// releaseBuffer frees the receive buffer; BUG(CRaft#6) leaks it on the
// rejection path.
func (n *Node) releaseBuffer(rejected bool) {
	if rejected && n.bug(bugdb.CRaftBufferLeak) {
		return // leaked
	}
	n.allocBuffers--
}

func (n *Node) handleAppendEntriesResponse(from int, m Message) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if m.Term < n.term {
		if n.bug(bugdb.CRaftTermNonMonotonic) {
			// BUG(CRaft#4): a stale response drags the current term
			// backwards.
			n.term = m.Term
			n.persist()
		}
		return
	}
	if n.role != Leader {
		return
	}
	if m.Flag {
		if nm := m.NextIndex - 1; nm > n.match[from] {
			n.match[from] = nm
		}
		if m.NextIndex > n.next[from] {
			n.next[from] = m.NextIndex
		}
		n.advanceCommit()
		return
	}
	ni := m.NextIndex
	if !n.bug(bugdb.CRaftEmptyRetry) && ni > n.lastIndex() {
		ni = n.lastIndex()
	}
	if !n.bug(bugdb.CRaftNextLEMatch) && ni < n.match[from]+1 {
		// BUG(CRaft#7): without this clamp a delayed rejection drives the
		// next index to or below the match index.
		ni = n.match[from] + 1
	}
	n.next[from] = ni
	// craft retries immediately after a rejection. BUG(CRaft#5): with the
	// flag on it retries even when there is nothing to send, producing
	// AppendEntries retries with empty logs.
	if n.bug(bugdb.CRaftEmptyRetry) || ni <= n.lastIndex() || ni <= n.snapIdx {
		n.sendAppend(from, true)
	}
}

func (n *Node) handleSnapshot(from int, m Message) {
	if m.Term < n.term {
		n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	n.yieldToLeader()
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	if m.SnapIndex > n.snapIdx {
		if n.bug(bugdb.CRaftSnapshotReject) && n.lastIndex() >= m.SnapIndex && n.logTerm(m.SnapIndex) != m.SnapTerm {
			// BUG(CRaft#3): the snapshot is rejected when the local log
			// conflicts with it — exactly the situation the snapshot is
			// supposed to repair — so the follower lags behind until the
			// next snapshot round.
			n.env.Logf("snapshot %d@%d rejected: conflicting local log", m.SnapIndex, m.SnapTerm)
			n.send(from, Message{Type: "aer", Term: n.term, Flag: true, NextIndex: n.lastIndex() + 1})
			return
		}
		n.log = nil
		n.snapIdx = m.SnapIndex
		n.snapTerm = m.SnapTerm
		if m.SnapIndex > n.commit {
			n.commit = m.SnapIndex
		}
		n.persist()
		n.env.Logf("installed snapshot %d@%d", n.snapIdx, n.snapTerm)
	}
	n.send(from, Message{Type: "aer", Term: n.term, Flag: true, NextIndex: n.lastIndex() + 1})
}

func (n *Node) advanceCommit() {
	for idx := n.lastIndex(); idx > n.commit; idx-- {
		if n.logTerm(idx) != n.term {
			break
		}
		count := 1
		for p := 0; p < n.env.N(); p++ {
			if p != n.env.ID() && n.match[p] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			n.commit = idx
			n.env.Logf("commit advanced to %d", n.commit)
			break
		}
	}
}

// fields are the variables Observe renders, in the order it writes them.
var fields = []string{"role", "term", "votedFor", "log", "commit", "snapshot", "next", "match", "votes"}

// Fields implements vos.Process.
func (n *Node) Fields() []string { return fields }

// Observe implements vos.Process.
func (n *Node) Observe(dst []string) {
	dst[0] = n.role.String()
	dst[1] = strconv.Itoa(n.term)
	dst[2] = strconv.Itoa(n.votedFor)
	dst[3] = trace.Log(n.log)
	dst[4] = strconv.Itoa(n.commit)
	dst[5] = strconv.Itoa(n.snapIdx) + "@" + strconv.Itoa(n.snapTerm)
	if n.role == Leader {
		dst[6] = trace.PeerRow(n.next, n.env.ID())
		dst[7] = trace.PeerRow(n.match, n.env.ID())
	} else {
		dst[6], dst[7] = "-", "-"
	}
	if n.role == Candidate {
		dst[8] = trace.IDSet(trace.MapIDs(n.votes))
	} else {
		dst[8] = "-"
	}
}
