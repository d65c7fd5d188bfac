// Package zabkeeper is the ZooKeeper analogue: a coordination-service core
// implementing Zab — fast leader election (FLE) by vote notification,
// a discovery/synchronisation phase, and the broadcast phase (propose /
// ack / commit) — over TCP semantics.
//
// BUG(ZabKeeper#1), the ZOOKEEPER-1419 analogue: the FLE vote comparator
// treats a higher epoch OR a higher counter as superseding. Once vote zxids
// cross epochs the relation loses antisymmetry — votes are no longer
// totally ordered — and leader election can oscillate forever.
package zabkeeper

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Server states.
type ZState int

// States.
const (
	Looking ZState = iota
	Following
	Leading
)

func (s ZState) String() string {
	switch s {
	case Leading:
		return "leading"
	case Following:
		return "following"
	default:
		return "looking"
	}
}

// Txn is one replicated transaction with zxid (Epoch, Counter).
type Txn struct {
	Epoch   int    `json:"e"`
	Counter int    `json:"c"`
	Value   string `json:"v"`
}

// Vote is an FLE vote.
type Vote struct {
	Leader  int `json:"leader"`
	Epoch   int `json:"epoch"`
	Counter int `json:"counter"`
}

// String renders the vote as "leader@(epoch,counter)".
func (v Vote) String() string { return trace.Vote(v.Leader, v.Epoch, v.Counter) }

// Message is the wire format.
type Message struct {
	Type      string `json:"type"`
	Round     int    `json:"round,omitempty"`
	State     int    `json:"state,omitempty"`
	Vote      Vote   `json:"vote,omitempty"`
	Epoch     int    `json:"epoch,omitempty"`
	Counter   int    `json:"counter,omitempty"`
	NewEpoch  int    `json:"new_epoch,omitempty"`
	History   []Txn  `json:"history,omitempty"`
	Committed int    `json:"committed,omitempty"`
	Value     string `json:"value,omitempty"`
	Index     int    `json:"index,omitempty"`
}

// ElectionTimeout is fired by the engine's virtual-clock advancement.
const ElectionTimeout = 100 * time.Millisecond

// Node is one zabkeeper replica.
type Node struct {
	env  vos.Env
	bugs bugdb.Set

	state   ZState
	round   int
	vote    Vote
	recv    []Vote
	epoch   int   // durable
	history []Txn // durable
	commit  int

	leaderID  int
	pendEpoch int
	synced    []bool
	acked     []int
	activated bool
	counter   int

	electionDeadline time.Time
}

// New constructs a replica.
func New(bugs bugdb.Set) *Node { return &Node{bugs: bugs} }

// Start implements vos.Process.
func (n *Node) Start(env vos.Env) {
	n.env = env
	n.state = Looking
	n.round = 0
	n.epoch = 0
	n.history = nil
	n.commit = 0
	n.leaderID = -1
	n.pendEpoch = 0
	n.synced, n.acked = nil, nil
	n.activated = false
	n.counter = 0
	n.loadDurable()
	e, c := n.lastZxid()
	n.vote = Vote{Leader: env.ID(), Epoch: e, Counter: c}
	n.recv = emptyRecv(env.N())
	n.recv[env.ID()] = n.vote
	n.electionDeadline = env.Now().Add(ElectionTimeout)
	env.Logf("started state=%s epoch=%d", n.state, n.epoch)
}

func emptyRecv(count int) []Vote {
	r := make([]Vote, count)
	for i := range r {
		r[i] = Vote{Leader: -1}
	}
	return r
}

type durable struct {
	Epoch   int   `json:"epoch"`
	History []Txn `json:"history"`
}

func (n *Node) persist() {
	b, err := json.Marshal(durable{Epoch: n.epoch, History: n.history})
	if err != nil {
		panic(fmt.Sprintf("zabkeeper: marshal durable: %v", err))
	}
	n.env.Persist("zab", b)
}

func (n *Node) loadDurable() {
	b, ok := n.env.Load("zab")
	if !ok {
		return
	}
	var d durable
	if err := json.Unmarshal(b, &d); err != nil {
		panic(fmt.Sprintf("zabkeeper: unmarshal durable: %v", err))
	}
	n.epoch, n.history = d.Epoch, d.History
}

func (n *Node) lastZxid() (epoch, counter int) {
	if len(n.history) == 0 {
		return 0, 0
	}
	t := n.history[len(n.history)-1]
	return t.Epoch, t.Counter
}

func (n *Node) quorum() int { return n.env.N()/2 + 1 }

func (n *Node) send(to int, m Message) {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("zabkeeper: marshal message: %v", err))
	}
	n.env.Send(to, b)
}

// supersedes is the FLE totalOrderPredicate; see the package comment for
// the ZabKeeper#1 defect.
func (n *Node) supersedes(a, b Vote) bool {
	if n.bugs.Has(bugdb.ZabVoteOrder) {
		return a.Epoch > b.Epoch || a.Counter > b.Counter ||
			(a.Epoch == b.Epoch && a.Counter == b.Counter && a.Leader > b.Leader)
	}
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Counter != b.Counter {
		return a.Counter > b.Counter
	}
	return a.Leader > b.Leader
}

// Tick implements vos.Process: the election timer fires and the node
// (re-)enters leader election.
func (n *Node) Tick() {
	if n.env.Now().Before(n.electionDeadline) {
		return
	}
	n.startElection()
	n.electionDeadline = n.env.Now().Add(ElectionTimeout)
}

func (n *Node) startElection() {
	n.state = Looking
	n.round++
	e, c := n.lastZxid()
	n.vote = Vote{Leader: n.env.ID(), Epoch: e, Counter: c}
	n.recv = emptyRecv(n.env.N())
	n.recv[n.env.ID()] = n.vote
	n.leaderID = -1
	n.synced, n.acked = nil, nil
	n.activated = false
	n.env.Logf("election round=%d vote=%s", n.round, n.vote)
	n.broadcastNotif()
}

func (n *Node) broadcastNotif() {
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() {
			continue
		}
		n.send(p, Message{Type: "notif", Round: n.round, State: int(n.state), Vote: n.vote})
	}
}

// ClientRequest implements vos.Process: an activated leader proposes the
// value as the next transaction.
func (n *Node) ClientRequest(payload string) {
	if n.state != Leading || !n.activated {
		n.env.Logf("client request rejected: not an active leader")
		return
	}
	n.counter++
	txn := Txn{Epoch: n.pendEpoch, Counter: n.counter, Value: payload}
	n.history = append(n.history, txn)
	n.persist()
	n.acked[n.env.ID()] = len(n.history)
	n.env.Logf("proposed %d.%d:%s", txn.Epoch, txn.Counter, txn.Value)
	for p := 0; p < n.env.N(); p++ {
		if p == n.env.ID() || !n.synced[p] {
			continue
		}
		n.send(p, Message{Type: "prop", Epoch: txn.Epoch, Counter: txn.Counter, Value: payload})
	}
}

// Receive implements vos.Process.
func (n *Node) Receive(from int, msg []byte) {
	var m Message
	if err := json.Unmarshal(msg, &m); err != nil {
		panic(fmt.Sprintf("zabkeeper: bad message from %d: %v", from, err))
	}
	switch m.Type {
	case "notif":
		n.handleNotification(from, m)
	case "finfo":
		n.handleFollowerInfo(from, m)
	case "sync":
		n.handleSync(from, m)
	case "ackld":
		n.handleAckLeader(from, m)
	case "prop":
		n.handleProposal(from, m)
	case "ack":
		n.handleAck(from, m)
	case "commit":
		n.handleCommit(from, m)
	default:
		panic(fmt.Sprintf("zabkeeper: unknown message type %q", m.Type))
	}
}

func (n *Node) handleNotification(from int, m Message) {
	if n.state != Looking {
		if ZState(m.State) == Looking {
			n.send(from, Message{Type: "notif", Round: n.round, State: int(n.state), Vote: n.vote})
		}
		return
	}
	if ZState(m.State) == Looking {
		switch {
		case m.Round > n.round:
			n.round = m.Round
			n.recv = emptyRecv(n.env.N())
			if n.supersedes(m.Vote, n.vote) {
				n.vote = m.Vote
			}
			n.broadcastNotif()
		case m.Round < n.round:
			n.send(from, Message{Type: "notif", Round: n.round, State: int(n.state), Vote: n.vote})
			return
		default:
			if n.supersedes(m.Vote, n.vote) {
				n.vote = m.Vote
				n.broadcastNotif()
			}
		}
		n.recv[from] = m.Vote
		n.recv[n.env.ID()] = n.vote
		n.maybeElect()
		return
	}
	// A settled peer answered: join the established ensemble.
	if m.Vote.Leader != n.env.ID() {
		n.vote = m.Vote
		n.recv[from] = m.Vote
		n.follow(m.Vote.Leader)
	}
}

func (n *Node) maybeElect() {
	count := 0
	for j := 0; j < n.env.N(); j++ {
		if n.recv[j].Leader >= 0 && n.recv[j] == n.vote {
			count++
		}
	}
	if count < n.quorum() {
		return
	}
	if n.vote.Leader == n.env.ID() {
		n.lead()
	} else {
		n.follow(n.vote.Leader)
	}
}

func (n *Node) lead() {
	n.state = Leading
	n.leaderID = n.env.ID()
	he, _ := n.lastZxid()
	pend := n.epoch
	if he > pend {
		pend = he
	}
	n.pendEpoch = pend + 1
	n.synced = make([]bool, n.env.N())
	n.synced[n.env.ID()] = true
	n.acked = make([]int, n.env.N())
	n.acked[n.env.ID()] = len(n.history)
	n.activated = false
	n.counter = 0
	n.env.Logf("leading epoch=%d", n.pendEpoch)
}

func (n *Node) follow(leader int) {
	n.state = Following
	n.leaderID = leader
	n.synced, n.acked = nil, nil
	n.activated = false
	e, c := n.lastZxid()
	n.env.Logf("following %d", leader)
	n.send(leader, Message{Type: "finfo", Epoch: n.epoch, Counter: c, NewEpoch: e})
}

func (n *Node) handleFollowerInfo(from int, m Message) {
	if n.state != Leading {
		return
	}
	n.send(from, Message{Type: "sync", NewEpoch: n.pendEpoch, History: append([]Txn(nil), n.history...), Committed: n.commit})
}

func (n *Node) handleSync(from int, m Message) {
	if n.state != Following || n.leaderID != from {
		return
	}
	// Epoch promise: never help establish an epoch at or below the one
	// already accepted.
	if m.NewEpoch <= n.epoch {
		return
	}
	n.epoch = m.NewEpoch
	n.history = append([]Txn(nil), m.History...)
	n.persist()
	if m.Committed > n.commit {
		n.commit = m.Committed
		n.env.Logf("committed %d", n.commit)
	}
	e, c := n.lastZxid()
	n.send(from, Message{Type: "ackld", Epoch: e, Counter: c})
}

func (n *Node) handleAckLeader(from int, m Message) {
	if n.state != Leading {
		return
	}
	n.synced[from] = true
	// Stream proposals issued since the SYNC was cut (no history gaps).
	idx := n.historyIndex(m.Epoch, m.Counter)
	n.acked[from] = idx
	for k := idx; k < len(n.history); k++ {
		t := n.history[k]
		n.send(from, Message{Type: "prop", Epoch: t.Epoch, Counter: t.Counter, Value: t.Value})
	}
	count := 0
	for j := 0; j < n.env.N(); j++ {
		if n.synced[j] {
			count++
		}
	}
	if count >= n.quorum() && !n.activated {
		n.activated = true
		n.epoch = n.pendEpoch
		n.persist()
		n.env.Logf("epoch %d established", n.epoch)
	}
	n.advanceCommit()
}

func (n *Node) handleProposal(from int, m Message) {
	if n.state != Following || n.leaderID != from {
		return
	}
	e, c := n.lastZxid()
	switch {
	case (m.Epoch == e && m.Counter == c+1) || (m.Epoch > e && m.Counter == 1):
		n.history = append(n.history, Txn{Epoch: m.Epoch, Counter: m.Counter, Value: m.Value})
		n.persist()
		n.send(from, Message{Type: "ack", Epoch: m.Epoch, Counter: m.Counter})
	case m.Epoch < e || (m.Epoch == e && m.Counter <= c):
		n.send(from, Message{Type: "ack", Epoch: m.Epoch, Counter: m.Counter})
	default:
		// Gap: ignore; a later election round re-synchronises this node.
		n.env.Logf("proposal %d.%d ignored: gap after (%d,%d)", m.Epoch, m.Counter, e, c)
	}
}

// historyIndex maps a zxid to its 1-based history position (0 if absent).
func (n *Node) historyIndex(epoch, counter int) int {
	for k, t := range n.history {
		if t.Epoch == epoch && t.Counter == counter {
			return k + 1
		}
	}
	return 0
}

func (n *Node) handleAck(from int, m Message) {
	if n.state != Leading {
		return
	}
	idx := -1
	for k, t := range n.history {
		if t.Epoch == m.Epoch && t.Counter == m.Counter {
			idx = k + 1
			break
		}
	}
	if idx < 0 {
		return
	}
	if idx > n.acked[from] {
		n.acked[from] = idx
	}
	n.advanceCommit()
}

func (n *Node) advanceCommit() {
	if !n.activated {
		return
	}
	newCommit := n.commit
	for idx := n.commit + 1; idx <= len(n.history); idx++ {
		if n.history[idx-1].Epoch != n.pendEpoch {
			continue
		}
		count := 0
		for j := 0; j < n.env.N(); j++ {
			if n.acked[j] >= idx {
				count++
			}
		}
		if count >= n.quorum() {
			newCommit = idx
		}
	}
	if newCommit > n.commit {
		n.commit = newCommit
		n.env.Logf("committed %d", n.commit)
		for p := 0; p < n.env.N(); p++ {
			if p == n.env.ID() || !n.synced[p] {
				continue
			}
			n.send(p, Message{Type: "commit", Index: n.commit})
		}
	}
}

func (n *Node) handleCommit(from int, m Message) {
	if n.state != Following || n.leaderID != from {
		return
	}
	c := m.Index
	if c > len(n.history) {
		c = len(n.history)
	}
	if c > n.commit {
		n.commit = c
		n.env.Logf("committed %d", n.commit)
	}
}

// fields are the variables Observe renders, in the order it writes them.
var fields = []string{"state", "round", "vote", "epoch", "history", "committed", "leader", "synced", "acked"}

// Fields implements vos.Process.
func (n *Node) Fields() []string { return fields }

// Observe implements vos.Process.
func (n *Node) Observe(dst []string) {
	dst[0] = n.state.String()
	dst[1] = strconv.Itoa(n.round)
	dst[2] = n.vote.String()
	dst[3] = strconv.Itoa(n.epoch)
	dst[4] = trace.History(n.history)
	dst[5] = strconv.Itoa(n.commit)
	dst[6] = strconv.Itoa(n.leaderID)
	if n.state == Leading {
		dst[7] = trace.IDSet(trace.BoolIDs(n.synced))
		dst[8] = trace.PeerRow(n.acked, n.env.ID())
	} else {
		dst[7], dst[8] = "-", "-"
	}
}
