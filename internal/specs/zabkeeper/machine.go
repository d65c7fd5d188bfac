package zabkeeper

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Machine is the zabkeeper specification.
type Machine struct {
	system string
	n      int
	cfg    spec.Config
	budget spec.Budget
	bugs   bugdb.Set
}

// New builds the zabkeeper specification machine. The state keeps per-node
// sets as spec.NodeSet bit masks, so a configuration beyond spec.MaxNodes is a
// caller's bug (the run layer refuses one with an error before it gets here).
func New(cfg spec.Config, b spec.Budget, bugs bugdb.Set) *Machine {
	if cfg.Nodes > spec.MaxNodes {
		panic(fmt.Sprintf("zabkeeper: %d nodes, a state indexes at most %d", cfg.Nodes, spec.MaxNodes))
	}
	return &Machine{system: "zabkeeper", n: cfg.Nodes, cfg: cfg, budget: b, bugs: bugs}
}

// Name implements spec.Machine.
func (m *Machine) Name() string { return m.system }

// Init implements spec.Machine.
func (m *Machine) Init() []spec.State { return []spec.State{newState(m.n)} }

// NumNodes implements spec.Symmetric.
func (m *Machine) NumNodes() int { return m.n }

// Permute implements spec.Symmetric.
func (m *Machine) Permute(st spec.State, perm []int) spec.State {
	return st.(*State).permute(perm)
}

func (m *Machine) quorum() int { return m.n/2 + 1 }

// Supersedes is the FLE vote comparator ("totalOrderPredicate"). The fixed
// comparator orders votes lexicographically by (epoch, counter, leader id).
// BUG(ZabKeeper#1): the buggy comparator treats a higher epoch OR a higher
// counter as superseding, which loses antisymmetry once vote zxids cross
// epochs — the vote order is no longer total, and leader election never
// settles (the ZOOKEEPER-1419 analogue).
func (m *Machine) Supersedes(a, b Vote) bool {
	if m.bugs.Has(bugdb.ZabVoteOrder) {
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

// Next implements spec.Machine.
func (m *Machine) Next(st spec.State) []spec.Succ {
	return m.AppendNext(st, nil)
}

// AppendNext implements spec.BufferedMachine: successors are appended to buf
// so the explorer can reuse one scratch buffer per worker (see
// spec.BufferedMachine for the ownership rules).
func (m *Machine) AppendNext(st spec.State, buf []spec.Succ) []spec.Succ {
	s := st.(*State)
	if s.Viol.Flag != "" {
		return buf
	}
	out := buf
	// clone copies s into the dead state the next append would overwrite
	// (see spec.BufferedMachine); a successor add drops leaves its slot, so
	// the next one recycles it.
	clone := func() *State { return s.cloneInto(spec.Dead[*State](out)) }
	add := func(ev trace.Event, n *State) {
		if n.Overflows(m.budget.MaxBuffer) {
			return
		}
		out = append(out, spec.Succ{Event: ev, State: n})
	}
	b := m.budget

	for i := 0; i < m.n; i++ {
		if !s.Up.Has(i) {
			continue
		}
		// Election timeout: the node (re-)enters leader election.
		if s.Counters.CanTimeout(b) {
			n := clone()
			n.Counters.Timeouts++
			m.startElection(n, i)
			add(trace.Event{Type: trace.EvTimeout, Action: "TimeoutElection", Node: i, Payload: "election"}, n)
		}
		// Client requests served by an activated leader.
		if s.ZState[i] == Leading && s.Activated.Has(i) && s.Counters.CanRequest(b) {
			for _, v := range m.cfg.Workload {
				n := clone()
				n.Counters.Requests++
				m.clientRequest(n, i, v)
				add(trace.Event{Type: trace.EvRequest, Action: "ClientRequest", Node: i, Payload: v}, n)
			}
		}
		// Node crash.
		if s.Counters.CanCrash(b) {
			n := clone()
			n.Counters.Crashes++
			m.crash(n, i)
			add(trace.Event{Type: trace.EvCrash, Action: "NodeCrash", Node: i}, n)
		}
	}
	// Restarts, deliveries (TCP: the head of each channel), partitions and
	// recoveries.
	s.Events(&s.Counters, b, spec.TCP, func(ev trace.Event) {
		n := clone()
		if msg, ok := n.Apply(ev, &n.Counters); ok {
			ev.Action = m.dispatch(n, ev.Peer, ev.Node, msg.unpack())
		}
		add(ev, n)
	})
	return out
}

func (m *Machine) dispatch(s *State, src, dst int, msg Msg) string {
	switch msg.Type {
	case "notif":
		m.handleNotification(s, dst, src, msg)
		return "HandleNotification"
	case "finfo":
		m.handleFollowerInfo(s, dst, src, msg)
		return "HandleFollowerInfo"
	case "sync":
		m.handleSync(s, dst, src, msg)
		return "HandleSync"
	case "ackld":
		m.handleAckLeader(s, dst, src, msg)
		return "HandleAckLeader"
	case "prop":
		m.handleProposal(s, dst, src, msg)
		return "HandleProposal"
	case "ack":
		m.handleAck(s, dst, src, msg)
		return "HandleAck"
	case "commit":
		m.handleCommit(s, dst, src, msg)
		return "HandleCommit"
	default:
		panic(fmt.Sprintf("zabkeeper: unknown message type %q", msg.Type))
	}
}

// startElection: the node goes LOOKING, bumps its round, votes for itself
// with its own last zxid, and notifies every connected peer.
func (m *Machine) startElection(s *State, i int) {
	s.ZState[i] = Looking
	s.Round[i]++
	e, c := s.lastZxid(i)
	s.Vote[i] = Vote{Leader: i, Epoch: e, Counter: c}
	s.Recv[i] = emptyRecv(m.n)
	s.Recv[i][i] = s.Vote[i]
	s.LeaderID[i] = -1
	s.Synced[i] = 0
	s.Acked[i] = nil
	s.Activated.Del(i)
	m.broadcastNotif(s, i)
}

func (m *Machine) broadcastNotif(s *State, i int) {
	for p := 0; p < m.n; p++ {
		if p == i {
			continue
		}
		s.Send(i, p, mustPack(Msg{Type: "notif", Round: s.Round[i], State: s.ZState[i], Vote: s.Vote[i]}))
	}
}

func (m *Machine) handleNotification(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Looking {
		// A settled node answers LOOKING peers with its current view so the
		// newcomer can join the established ensemble (Figure 3's handler).
		if msg.State == Looking {
			s.Send(dst, src, mustPack(Msg{Type: "notif", Round: s.Round[dst], State: s.ZState[dst], Vote: s.Vote[dst]}))
		}
		return
	}
	if msg.State == Looking {
		switch {
		case msg.Round > s.Round[dst]:
			s.Round[dst] = msg.Round
			s.Recv[dst] = emptyRecv(m.n)
			if m.Supersedes(msg.Vote, s.Vote[dst]) {
				s.Vote[dst] = msg.Vote
			}
			m.broadcastNotif(s, dst)
		case msg.Round < s.Round[dst]:
			s.Send(dst, src, mustPack(Msg{Type: "notif", Round: s.Round[dst], State: s.ZState[dst], Vote: s.Vote[dst]}))
			return
		default:
			if m.Supersedes(msg.Vote, s.Vote[dst]) {
				s.Vote[dst] = msg.Vote
				m.broadcastNotif(s, dst)
			}
		}
		s.Recv[dst][src] = msg.Vote
		s.Recv[dst][dst] = s.Vote[dst]
		m.maybeElect(s, dst)
		return
	}
	// Notification from a settled (LEADING/FOLLOWING) node: join it.
	if msg.Vote.Leader != dst {
		s.Vote[dst] = msg.Vote
		s.Recv[dst][src] = msg.Vote
		m.follow(s, dst, msg.Vote.Leader)
	}
}

func (m *Machine) maybeElect(s *State, i int) {
	count := 0
	for j := 0; j < m.n; j++ {
		if s.Recv[i][j].Leader >= 0 && s.Recv[i][j] == s.Vote[i] {
			count++
		}
	}
	if count < m.quorum() {
		return
	}
	if s.Vote[i].Leader == i {
		m.lead(s, i)
	} else {
		m.follow(s, i, s.Vote[i].Leader)
	}
}

// lead: the elected leader enters the discovery phase: it will establish
// epoch pendEpoch and wait for a quorum of followers to sync.
func (m *Machine) lead(s *State, i int) {
	s.ZState[i] = Leading
	s.LeaderID[i] = i
	he, _ := s.lastZxid(i)
	pend := s.Epoch[i]
	if he > pend {
		pend = he
	}
	s.PendEpoch[i] = pend + 1
	s.Synced[i] = spec.SingleNode(i)
	s.Acked[i] = make([]int, m.n)
	s.Acked[i][i] = len(s.History[i])
	s.Activated.Del(i)
	s.Counter[i] = 0
}

// follow: the node becomes a follower and announces itself to the leader.
func (m *Machine) follow(s *State, i, leader int) {
	s.ZState[i] = Following
	s.LeaderID[i] = leader
	s.Synced[i] = 0
	s.Acked[i] = nil
	s.Activated.Del(i)
	e, c := s.lastZxid(i)
	s.Send(i, leader, mustPack(Msg{Type: "finfo", Epoch: s.Epoch[i], Counter: c, NewEpoch: e}))
}

func (m *Machine) handleFollowerInfo(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Leading {
		return
	}
	// Compressed discovery+sync: answer with the new epoch and the leader's
	// full history (a DIFF/SNAP collapsed to SNAP).
	s.Send(dst, src, mustPack(Msg{Type: "sync", NewEpoch: s.PendEpoch[dst], History: append([]Txn(nil), s.History[dst]...), Committed: s.Commit[dst]}))
}

func (m *Machine) handleSync(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Following || s.LeaderID[dst] != src {
		return
	}
	// Epoch promise (the discovery-phase guarantee): a follower that has
	// accepted epoch e never helps establish an epoch <= e, which keeps
	// established epochs unique across leaders.
	if msg.NewEpoch <= s.Epoch[dst] {
		return
	}
	s.Epoch[dst] = msg.NewEpoch
	s.History[dst] = append([]Txn(nil), msg.History...)
	if msg.Committed > s.Commit[dst] {
		s.Commit[dst] = msg.Committed
		m.extendCommitted(s, dst)
	}
	e, c := s.lastZxid(dst)
	s.Send(dst, src, mustPack(Msg{Type: "ackld", Epoch: e, Counter: c}))
}

func (m *Machine) handleAckLeader(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Leading {
		return
	}
	s.Synced[dst].Add(src)
	// The follower confirmed everything up to its reported last zxid; the
	// leader streams any proposals issued since the SYNC was cut so the
	// follower's history has no gaps.
	idx := m.historyIndex(s, dst, msg.Epoch, msg.Counter)
	s.Acked[dst][src] = idx
	for k := idx; k < len(s.History[dst]); k++ {
		t := s.History[dst][k]
		s.Send(dst, src, mustPack(Msg{Type: "prop", Epoch: t.Epoch, Counter: t.Counter, Value: t.Value}))
	}
	if s.Synced[dst].Count() >= m.quorum() && !s.Activated.Has(dst) {
		// Epoch established: the leader activates and adopts the new epoch.
		s.Activated.Add(dst)
		s.Epoch[dst] = s.PendEpoch[dst]
	}
	m.advanceCommit(s, dst)
}

// historyIndex maps a zxid to its 1-based position in node i's history
// (0 when the zxid is the empty marker or unknown).
func (m *Machine) historyIndex(s *State, i, epoch, counter int) int {
	for k, t := range s.History[i] {
		if t.Epoch == epoch && t.Counter == counter {
			return k + 1
		}
	}
	return 0
}

func (m *Machine) clientRequest(s *State, i int, v string) {
	s.Counter[i]++
	txn := Txn{Epoch: s.PendEpoch[i], Counter: s.Counter[i], Value: v}
	s.History[i] = append(s.History[i], txn)
	s.Acked[i][i] = len(s.History[i])
	for p := 0; p < m.n; p++ {
		if p == i || !s.Synced[i].Has(p) {
			continue
		}
		s.Send(i, p, mustPack(Msg{Type: "prop", Epoch: txn.Epoch, Counter: txn.Counter, Value: v}))
	}
}

func (m *Machine) handleProposal(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Following || s.LeaderID[dst] != src {
		return
	}
	e, c := s.lastZxid(dst)
	switch {
	case (msg.Epoch == e && msg.Counter == c+1) || (msg.Epoch > e && msg.Counter == 1):
		// The proposal directly extends the history: append and ack.
		s.History[dst] = append(s.History[dst], Txn{Epoch: msg.Epoch, Counter: msg.Counter, Value: msg.Value})
		s.Send(dst, src, mustPack(Msg{Type: "ack", Epoch: msg.Epoch, Counter: msg.Counter}))
	case msg.Epoch < e || (msg.Epoch == e && msg.Counter <= c):
		// Already held (a retransmission after catch-up): ack idempotently.
		s.Send(dst, src, mustPack(Msg{Type: "ack", Epoch: msg.Epoch, Counter: msg.Counter}))
	default:
		// A gap (the connection was cut in between): do not append — the
		// follower will re-synchronise through the next election round.
	}
}

func (m *Machine) handleAck(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Leading {
		return
	}
	// Map the acked zxid to an index in the leader's history.
	idx := -1
	for k, t := range s.History[dst] {
		if t.Epoch == msg.Epoch && t.Counter == msg.Counter {
			idx = k + 1
			break
		}
	}
	if idx < 0 {
		return
	}
	if idx > s.Acked[dst][src] {
		s.Acked[dst][src] = idx
	}
	m.advanceCommit(s, dst)
}

func (m *Machine) advanceCommit(s *State, i int) {
	if !s.Activated.Has(i) {
		return
	}
	newCommit := s.Commit[i]
	for idx := s.Commit[i] + 1; idx <= len(s.History[i]); idx++ {
		if s.History[i][idx-1].Epoch != s.PendEpoch[i] {
			continue
		}
		count := 0
		for j := 0; j < m.n; j++ {
			if s.Acked[i][j] >= idx {
				count++
			}
		}
		if count >= m.quorum() {
			newCommit = idx
		}
	}
	if newCommit > s.Commit[i] {
		s.Commit[i] = newCommit
		m.extendCommitted(s, i)
		for p := 0; p < m.n; p++ {
			if p == i || !s.Synced[i].Has(p) {
				continue
			}
			s.Send(i, p, mustPack(Msg{Type: "commit", Index: s.Commit[i]}))
		}
	}
}

func (m *Machine) handleCommit(s *State, dst, src int, msg Msg) {
	if s.ZState[dst] != Following || s.LeaderID[dst] != src {
		return
	}
	c := msg.Index
	if c > len(s.History[dst]) {
		c = len(s.History[dst])
	}
	if c > s.Commit[dst] {
		s.Commit[dst] = c
		m.extendCommitted(s, dst)
	}
}

func (m *Machine) extendCommitted(s *State, i int) {
	for idx := len(s.Committed) + 1; idx <= s.Commit[i]; idx++ {
		s.Committed = append(s.Committed, s.History[i][idx-1])
	}
}

// crash is the protocol half of node i crashing (spec.Net.Crash is the
// network half).
func (m *Machine) crash(s *State, i int) {
	s.Crash(i)
	// Volatile state resets (history and epoch are durable).
	s.ZState[i] = Looking
	s.Round[i] = 0
	e, c := s.lastZxid(i)
	s.Vote[i] = Vote{Leader: i, Epoch: e, Counter: c}
	s.Recv[i] = emptyRecv(m.n)
	s.Recv[i][i] = s.Vote[i]
	s.Commit[i] = 0
	s.LeaderID[i] = -1
	s.PendEpoch[i] = 0
	s.Synced[i] = 0
	s.Acked[i] = nil
	s.Activated.Del(i)
	s.Counter[i] = 0
}

// Actions lists the specification's action names (Table 1's #Act).
func (m *Machine) Actions() []string {
	return []string{
		"TimeoutElection", "ClientRequest",
		"HandleNotification", "HandleFollowerInfo", "HandleSync",
		"HandleAckLeader", "HandleProposal", "HandleAck", "HandleCommit",
		"NodeCrash", "NodeStart", "NetworkPartition", "NetworkRecover",
	}
}
