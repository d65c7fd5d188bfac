// Package asyncraft is the RaftOS analogue: an asyncio-styled Raft for
// replicating objects over UDP, with no delivery-order assumptions. Its
// event-loop heritage shows in the replication handler layout (dictionary
// lookups keyed by peer, an incremental commitment-checking loop) — which
// is where its four Table 2 defects live.
package asyncraft

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

// Entry is one log entry.
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// Message is the wire format (field names echo RaftOS's JSON dicts).
type Message struct {
	Type      string  `json:"type"` // "request_vote", "request_vote_response", "append_entries", "append_entries_response"
	Term      int     `json:"term"`
	LastIndex int     `json:"last_log_index,omitempty"`
	LastTerm  int     `json:"last_log_term,omitempty"`
	Granted   bool    `json:"vote_granted,omitempty"`
	PrevIndex int     `json:"prev_log_index,omitempty"`
	PrevTerm  int     `json:"prev_log_term,omitempty"`
	Entries   []Entry `json:"entries,omitempty"`
	Commit    int     `json:"commit_index,omitempty"`
	Flag      bool    `json:"success,omitempty"`
	NextIndex int     `json:"next_index,omitempty"`
}

// Timer constants.
const (
	ElectionTimeout   = 100 * time.Millisecond
	HeartbeatInterval = 50 * time.Millisecond
)

// Node is one asyncraft replica.
type Node struct {
	env  vos.Env
	bugs bugdb.Set

	role     Role
	term     int
	votedFor int
	log      []Entry
	commit   int

	votes []bool
	next  []int
	match []int

	electionDeadline  time.Time
	heartbeatDeadline time.Time
}

// New constructs a replica.
func New(bugs bugdb.Set) *Node { return &Node{bugs: bugs, votedFor: -1} }

// Start implements vos.Process.
func (n *Node) Start(env vos.Env) {
	n.env = env
	n.role = Follower
	n.term = 0
	n.votedFor = -1
	n.log = nil
	n.commit = 0
	n.votes, n.next, n.match = nil, nil, nil
	n.loadDurable()
	n.electionDeadline = env.Now().Add(ElectionTimeout)
	env.Logf("started role=%s term=%d", n.role, n.term)
}

type durable struct {
	Term     int     `json:"term"`
	VotedFor int     `json:"voted_for"`
	Log      []Entry `json:"log"`
}

func (n *Node) persist() {
	b, err := json.Marshal(durable{Term: n.term, VotedFor: n.votedFor, Log: n.log})
	if err != nil {
		panic(fmt.Sprintf("asyncraft: marshal durable: %v", err))
	}
	n.env.Persist("raftos", b)
}

func (n *Node) loadDurable() {
	b, ok := n.env.Load("raftos")
	if !ok {
		return
	}
	var d durable
	if err := json.Unmarshal(b, &d); err != nil {
		panic(fmt.Sprintf("asyncraft: unmarshal durable: %v", err))
	}
	n.term, n.votedFor, n.log = d.Term, d.VotedFor, d.Log
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
		panic(fmt.Sprintf("asyncraft: marshal message: %v", err))
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
		n.startElection()
		n.electionDeadline = n.env.Now().Add(ElectionTimeout)
	}
}

func (n *Node) startElection() {
	n.role = Candidate
	n.term++
	n.votedFor = n.env.ID()
	n.persist()
	n.votes = make([]bool, n.env.N())
	n.votes[n.env.ID()] = true
	n.env.Logf("election started term=%d", n.term)
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		n.send(p, Message{Type: "request_vote", Term: n.term, LastIndex: n.lastIndex(), LastTerm: n.logTerm(n.lastIndex())})
	}
	n.maybeWinElection()
}

func (n *Node) maybeWinElection() {
	if n.role != Candidate {
		return
	}
	count := 0
	for _, v := range n.votes {
		if v {
			count++
		}
	}
	if count >= n.quorum() {
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
	n.broadcastAppend()
	n.heartbeatDeadline = n.env.Now().Add(HeartbeatInterval)
}

func (n *Node) stepDown(term int) {
	n.term = term
	n.role = Follower
	n.votedFor = -1
	n.votes, n.next, n.match = nil, nil, nil
	n.persist()
}

func (n *Node) yieldToLeader() {
	if n.role != Follower {
		n.role = Follower
		n.votes, n.next, n.match = nil, nil, nil
	}
}

func (n *Node) broadcastAppend() {
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() || !n.env.Connected(p) {
			continue
		}
		ni := n.next[p]
		if ni < 1 {
			ni = 1
		}
		prev := ni - 1
		var entries []Entry
		if prev < len(n.log) {
			entries = append([]Entry(nil), n.log[prev:]...)
		}
		n.send(p, Message{Type: "append_entries", Term: n.term, PrevIndex: prev, PrevTerm: n.logTerm(prev), Entries: entries, Commit: n.commit})
	}
}

// ClientRequest implements vos.Process.
func (n *Node) ClientRequest(payload string) {
	if n.role != Leader {
		n.env.Logf("client request rejected: not leader")
		return
	}
	n.log = append(n.log, Entry{Term: n.term, Value: payload})
	n.persist()
	n.match[n.env.ID()] = n.lastIndex()
	n.env.Logf("appended entry index=%d term=%d", n.lastIndex(), n.term)
	// Eager replication on write, as the asyncio replicator does.
	n.broadcastAppend()
}

// Receive implements vos.Process.
func (n *Node) Receive(from int, msg []byte) {
	var m Message
	if err := json.Unmarshal(msg, &m); err != nil {
		panic(fmt.Sprintf("asyncraft: bad message from %d: %v", from, err))
	}
	switch m.Type {
	case "request_vote":
		n.handleRequestVote(from, m)
	case "request_vote_response":
		n.handleRequestVoteResponse(from, m)
	case "append_entries":
		n.handleAppendEntries(from, m)
	case "append_entries_response":
		n.handleAppendEntriesResponse(from, m)
	default:
		panic(fmt.Sprintf("asyncraft: unknown message type %q", m.Type))
	}
}

func (n *Node) handleRequestVote(from int, m Message) {
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
	n.send(from, Message{Type: "request_vote_response", Term: n.term, Granted: granted})
}

func (n *Node) handleRequestVoteResponse(from int, m Message) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.role != Candidate || !m.Granted || m.Term != n.term {
		return
	}
	n.votes[from] = true
	n.maybeWinElection()
}

func (n *Node) handleAppendEntries(from int, m Message) {
	if m.Term < n.term {
		n.send(from, Message{Type: "append_entries_response", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	n.yieldToLeader()
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)

	if m.PrevIndex > n.lastIndex() || (m.PrevIndex >= 1 && n.logTerm(m.PrevIndex) != m.PrevTerm) {
		n.send(from, Message{Type: "append_entries_response", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}

	changed := false
	if n.bugs.Has(bugdb.ARLogErase) && m.PrevIndex < n.lastIndex() {
		// BUG(AsyncRaft#2): the handler truncates everything after
		// PrevIndex before appending, erasing entries that already matched.
		// A duplicated or reordered (UDP) older AppendEntries then destroys
		// newer — possibly committed — entries.
		n.log = n.log[:m.PrevIndex]
		changed = true
	}
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
		n.persist()
	}

	if c := min(m.Commit, m.PrevIndex+len(m.Entries)); c > n.commit {
		n.commit = c
		n.env.Logf("commit advanced to %d", n.commit)
	}
	n.send(from, Message{Type: "append_entries_response", Term: n.term, Flag: true, NextIndex: m.PrevIndex + len(m.Entries) + 1})
}

func (n *Node) handleAppendEntriesResponse(from int, m Message) {
	if n.bugs.Has(bugdb.ARMissingKeyCrash) && m.Flag {
		// BUG(AsyncRaft#3): the handler indexes the replication table
		// before checking it is still the leader; after a step-down the
		// table is gone and the lookup blows up (RaftOS's KeyError).
		_ = n.match[from] // panics with index-out-of-range when not leader
	}
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if m.Term < n.term || n.role != Leader {
		return
	}
	if m.Flag {
		nm := m.NextIndex - 1
		if n.bugs.Has(bugdb.ARMatchNonMonotonic) {
			// BUG(AsyncRaft#1): plain assignment without a monotonicity
			// check — an out-of-order older response regresses the index.
			n.match[from] = nm
		} else if nm > n.match[from] {
			n.match[from] = nm
		}
		if m.NextIndex > n.next[from] {
			n.next[from] = m.NextIndex
		}
		n.advanceCommit()
		return
	}
	ni := m.NextIndex
	if ni < n.match[from]+1 {
		ni = n.match[from] + 1
	}
	n.next[from] = ni
}

func (n *Node) advanceCommit() {
	newCommit := n.commit
	for idx := n.commit + 1; idx <= n.lastIndex(); idx++ {
		if n.logTerm(idx) != n.term {
			if n.bugs.Has(bugdb.ARCommitLoopBreak) {
				// BUG(AsyncRaft#4): the commitment-checking loop stops at
				// the first old-term entry instead of skipping it, so a
				// replicated current-term entry beyond it never commits and
				// the cluster stops making progress.
				break
			}
			continue
		}
		count := 1
		for p := 0; p < n.env.N(); p++ {
			if p != n.env.ID() && n.match[p] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			newCommit = idx
		}
	}
	if newCommit > n.commit {
		n.commit = newCommit
		n.env.Logf("commit advanced to %d", n.commit)
	}
}

// fields are the variables Observe renders, in the order it writes them.
var fields = []string{"role", "term", "votedFor", "log", "commit", "next", "match", "votes"}

// Fields implements vos.Process.
func (n *Node) Fields() []string { return fields }

// Observe implements vos.Process.
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
		dst[7] = trace.IDSet(trace.BoolIDs(n.votes))
	} else {
		dst[7] = "-"
	}
}
