// Package xraft is the Xraft analogue: a teaching-oriented Raft core over
// TCP with the PreVote extension. The xraftkv package builds a replicated
// key-value store on top of it, the way xraft-kvstore builds on xraft-core.
//
// The two Table 2 defects live in the vote-response handler (stale votes
// counted across election rounds, Xraft#1) and in the replication-progress
// table (a concurrent-modification crash analogue, Xraft#2).
package xraft

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

// Entry is one log entry.
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// Message is the wire format.
type Message struct {
	Type      string  `json:"type"`
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
}

// Timer constants.
const (
	ElectionTimeout   = 100 * time.Millisecond
	HeartbeatInterval = 50 * time.Millisecond
)

// Options configure a node.
type Options struct {
	// PreVote enables the pre-election round (xraft-core has it; the KV
	// store configuration ships without it, as the paper notes).
	PreVote bool
	Bugs    bugdb.Set
	// Apply, when set, is called for every newly committed entry (the KV
	// store hooks its state machine here).
	Apply func(e Entry)
}

// Node is one xraft replica.
type Node struct {
	env vos.Env
	opt Options

	role     Role
	term     int
	votedFor int
	log      []Entry
	commit   int
	applied  int

	votes    map[int]bool
	prevotes map[int]bool
	next     []int
	match    []int

	electionDeadline  time.Time
	heartbeatDeadline time.Time
}

// New constructs a replica.
func New(opt Options) *Node { return &Node{opt: opt, votedFor: -1} }

func (n *Node) bug(k bugdb.Key) bool { return n.opt.Bugs.Has(k) }

// Env exposes the node's environment to embedding packages (xraftkv).
func (n *Node) Env() vos.Env { return n.env }

// Role returns the current role.
func (n *Node) CurrentRole() Role { return n.role }

// Start implements vos.Process.
func (n *Node) Start(env vos.Env) {
	n.env = env
	n.role = Follower
	n.term = 0
	n.votedFor = -1
	n.log = nil
	n.commit = 0
	n.applied = 0
	n.votes, n.prevotes = nil, nil
	n.next, n.match = nil, nil
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
		panic(fmt.Sprintf("xraft: marshal durable: %v", err))
	}
	n.env.Persist("xraft", b)
}

func (n *Node) loadDurable() {
	b, ok := n.env.Load("xraft")
	if !ok {
		return
	}
	var d durable
	if err := json.Unmarshal(b, &d); err != nil {
		panic(fmt.Sprintf("xraft: unmarshal durable: %v", err))
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
		panic(fmt.Sprintf("xraft: marshal message: %v", err))
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
		n.send(p, Message{Type: "ae", Term: n.term, PrevIndex: prev, PrevTerm: n.logTerm(prev), Entries: entries, Commit: n.commit})
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
}

// Receive implements vos.Process.
func (n *Node) Receive(from int, msg []byte) {
	var m Message
	if err := json.Unmarshal(msg, &m); err != nil {
		panic(fmt.Sprintf("xraft: bad message from %d: %v", from, err))
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
		panic(fmt.Sprintf("xraft: unknown message type %q", m.Type))
	}
}

func (n *Node) handleRequestVote(from int, m Message) {
	if m.Pre {
		granted := m.Term >= n.term
		if granted {
			last := n.lastIndex()
			granted = m.LastTerm > n.logTerm(last) ||
				(m.LastTerm == n.logTerm(last) && m.LastIndex >= last)
		}
		if granted && n.role == Leader {
			granted = false
		}
		n.send(from, Message{Type: "rvr", Term: n.term, Pre: true, Granted: granted})
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
	n.send(from, Message{Type: "rvr", Term: n.term, Granted: granted})
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
	if !n.bug(bugdb.XRaftStaleVotes) && m.Term != n.term {
		return
	}
	// BUG(Xraft#1): with the flag on, granted responses are accepted
	// unconditionally — a vote earned in an older election round counts
	// toward the current one, and two leaders can coexist in one term.
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
	n.yieldToLeader()
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)

	if m.PrevIndex > n.lastIndex() || (m.PrevIndex >= 1 && n.logTerm(m.PrevIndex) != m.PrevTerm) {
		n.send(from, Message{Type: "aer", Term: n.term, Flag: false, NextIndex: n.lastIndex() + 1})
		return
	}

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
		n.persist()
	}

	if c := min(m.Commit, m.PrevIndex+len(m.Entries)); c > n.commit {
		n.commit = c
		n.applyCommitted()
	}
	n.send(from, Message{Type: "aer", Term: n.term, Flag: true, NextIndex: m.PrevIndex + len(m.Entries) + 1})
}

func (n *Node) handleAppendEntriesResponse(from int, m Message) {
	if m.Term > n.term {
		if n.role == Leader && n.bug(bugdb.XRaftConcurrentMap) {
			// BUG(Xraft#2): the handler steps down (clearing the
			// replication-progress table) while the enclosing replication
			// routine continues to use it — the analogue of xraft's
			// ConcurrentModificationException between the core thread and
			// the replication callback.
			n.stepDown(m.Term)
			n.match[from] = m.NextIndex - 1 // progress table is gone: crash
			return
		}
		n.stepDown(m.Term)
		return
	}
	if m.Term < n.term || n.role != Leader {
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
	if ni < n.match[from]+1 {
		ni = n.match[from] + 1
	}
	n.next[from] = ni
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
			n.applyCommitted()
			break
		}
	}
}

func (n *Node) applyCommitted() {
	for n.applied < n.commit {
		n.applied++
		if n.opt.Apply != nil {
			n.opt.Apply(n.log[n.applied-1])
		}
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
		dst[7] = trace.IDSet(trace.MapIDs(n.votes))
	} else {
		dst[7] = "-"
	}
}
