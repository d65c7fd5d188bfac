package raftbase

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vnet"
)

// Profile selects a system dialect: the same Raft skeleton with the
// particular reply formulas, optimisations, and extensions of each target
// system.
type Profile int

// Profiles.
const (
	// GoSyncObj: TCP, optimistic next-index advance, follower Inext hints.
	GoSyncObj Profile = iota
	// CRaft: UDP, log compaction + snapshots, retry-on-reject.
	CRaft
	// AsyncRaft: UDP, asyncio-style replication loop.
	AsyncRaft
	// Xraft: TCP, PreVote.
	Xraft
)

// Options instantiate the specification.
type Options struct {
	System    string
	Profile   Profile
	Transport vnet.Semantics
	PreVote   bool
	Snapshots bool
	KV        bool
	// ContinuePastFlag keeps exploring beyond states whose violation flag
	// is set. By default a flagged state is terminal (the violation has
	// been found; exploring further wastes states), but reproducing
	// multi-defect scenarios such as Figure 7 — where a flagged send must
	// still be delivered — requires exploring past the flag.
	ContinuePastFlag bool
	Bugs             bugdb.Set
	Config           spec.Config
	Budget           spec.Budget
}

// Machine is the Raft-family specification engine.
type Machine struct {
	opt Options
	n   int
}

// New builds the machine. The state keeps per-node sets as spec.NodeSet bit
// masks, so a configuration beyond spec.MaxNodes is a caller's bug (the run
// layer refuses one with an error before it gets here).
func New(opt Options) *Machine {
	if opt.Config.Nodes > spec.MaxNodes {
		panic(fmt.Sprintf("raftbase: %d nodes, a state indexes at most %d", opt.Config.Nodes, spec.MaxNodes))
	}
	return &Machine{opt: opt, n: opt.Config.Nodes}
}

// Name implements spec.Machine.
func (m *Machine) Name() string { return m.opt.System }

// Options exposes the instantiation (used by integrations).
func (m *Machine) Options() Options { return m.opt }

// Init implements spec.Machine.
func (m *Machine) Init() []spec.State {
	s := newState(m.n)
	s.snapshots = m.opt.Snapshots
	s.kv = m.opt.KV
	s.durability = m.opt.Budget.MaxDirtyCrashes > 0
	return []spec.State{s}
}

// NumNodes implements spec.Symmetric.
func (m *Machine) NumNodes() int { return m.n }

// Permute implements spec.Symmetric.
func (m *Machine) Permute(st spec.State, perm []int) spec.State {
	return st.(*State).permute(perm)
}

func (m *Machine) bug(k bugdb.Key) bool { return m.opt.Bugs.Has(k) }

func (m *Machine) quorum() int { return m.n/2 + 1 }

// Next implements spec.Machine: enumerate every enabled node-level event.
func (m *Machine) Next(st spec.State) []spec.Succ {
	return m.AppendNext(st, nil)
}

// AppendNext implements spec.BufferedMachine: it appends every enabled
// node-level event to buf, letting the explorer reuse one successor buffer
// per worker instead of allocating a slice per expanded state — and, through
// the buffer's slack, the successor states themselves: each successor is
// cloned into the dead state its slot still holds from an earlier call.
func (m *Machine) AppendNext(st spec.State, buf []spec.Succ) []spec.Succ {
	s := st.(*State)
	if s.Viol.Flag != "" && !m.opt.ContinuePastFlag {
		// A flagged state is terminal: the violation has been detected and
		// exploring beyond it only wastes states.
		return buf
	}
	out := buf
	// clone copies s into the state the next append would overwrite. A
	// successor add drops for overflow leaves its slot, so the next one
	// recycles it.
	clone := func() *State { return s.cloneInto(spec.Dead[*State](out)) }
	add := func(ev trace.Event, n *State) {
		if m.overflows(n) {
			return
		}
		out = append(out, spec.Succ{Event: ev, State: n})
	}

	b := m.opt.Budget
	for i := 0; i < m.n; i++ {
		if !s.Up.Has(i) {
			continue
		}
		// Election timeout: any non-leader may time out at any moment.
		if s.Role[i] != Leader && s.Counters.CanTimeout(b) {
			n := clone()
			n.Counters.Timeouts++
			m.electionTimeout(n, i)
			add(trace.Event{Type: trace.EvTimeout, Action: "TimeoutElection", Node: i, Payload: "election"}, n)
		}
		// Heartbeat timeout: leaders replicate on their heartbeat timer.
		if s.Role[i] == Leader && s.Counters.CanTimeout(b) {
			n := clone()
			n.Counters.Timeouts++
			m.broadcastAppend(n, i)
			add(trace.Event{Type: trace.EvTimeout, Action: "TimeoutHeartbeat", Node: i, Payload: "heartbeat"}, n)
		}
		// Client requests are served by leaders.
		if s.Role[i] == Leader && s.Counters.CanRequest(b) {
			if m.opt.KV {
				for _, v := range m.opt.Config.Workload {
					n := clone()
					n.Counters.Requests++
					m.clientPut(n, i, "x", v)
					add(trace.Event{Type: trace.EvRequest, Action: "ClientPut", Node: i, Payload: "put x " + v}, n)
				}
				if m.getEnabled(s, i) {
					n := clone()
					n.Counters.Requests++
					m.clientGet(n, i, "x")
					add(trace.Event{Type: trace.EvRequest, Action: "ClientGet", Node: i, Payload: "get x"}, n)
				}
			} else {
				for _, v := range m.opt.Config.Workload {
					n := clone()
					n.Counters.Requests++
					m.clientAppend(n, i, v)
					add(trace.Event{Type: trace.EvRequest, Action: "ClientRequest", Node: i, Payload: v}, n)
				}
			}
		}
		// Log compaction (snapshotting systems): an internal admin action.
		if m.opt.Snapshots && s.Role[i] == Leader && s.Commit[i] > s.SnapIdx[i] && s.Counters.CanCompact(b) {
			n := clone()
			n.Counters.Compactions++
			m.compactLog(n, i)
			add(trace.Event{Type: trace.EvRequest, Action: "CompactLog", Node: i, Payload: "!compact"}, n)
		}
		// Node crash.
		if s.Counters.CanCrash(b) {
			n := clone()
			n.Counters.Crashes++
			m.crash(n, i)
			add(trace.Event{Type: trace.EvCrash, Action: "NodeCrash", Node: i}, n)
		}
		// Dirty node crash (crash-consistency fault): the unsynced journal
		// is lost, so recovery sees the durable mirrors, not the live
		// variables. Consumes the crash budget too, so MaxDirtyCrashes
		// selects how many of the crashes may be dirty.
		if s.Counters.CanCrash(b) && s.Counters.CanDirtyCrash(b) {
			n := clone()
			n.Counters.Crashes++
			n.Counters.DirtyCrashes++
			m.crashDirty(n, i)
			add(trace.Event{Type: trace.EvCrashDirty, Action: "NodeCrashDirty", Node: i, Payload: "lose-unsynced"}, n)
		}
	}
	// Node restart.
	for i := 0; i < m.n; i++ {
		if s.Up.Has(i) || !s.Counters.CanRestart(b) {
			continue
		}
		n := clone()
		n.Counters.Restarts++
		m.restart(n, i)
		add(trace.Event{Type: trace.EvRestart, Action: "NodeStart", Node: i}, n)
	}

	// Message deliveries and UDP manipulations.
	for src := 0; src < m.n; src++ {
		for dst := 0; dst < m.n; dst++ {
			q := s.Chan[src][dst]
			if src == dst || len(q) == 0 || !s.Up.Has(dst) {
				continue
			}
			limit := 1 // TCP: head only
			if m.opt.Transport == vnet.UDP {
				limit = len(q)
			}
			for k := 0; k < limit; k++ {
				n := clone()
				msg := n.takeMsg(src, dst, k)
				action := m.dispatch(n, src, dst, msg)
				add(trace.Event{Type: trace.EvDeliver, Action: action, Node: dst, Peer: src, Index: k}, n)
			}
			if m.opt.Transport == vnet.UDP {
				for k := 0; k < len(q); k++ {
					if s.Counters.CanDrop(b) {
						n := clone()
						n.Counters.Drops++
						n.takeMsg(src, dst, k)
						add(trace.Event{Type: trace.EvDrop, Action: "DropMessage", Node: dst, Peer: src, Index: k}, n)
					}
					if s.Counters.CanDuplicate(b) {
						n := clone()
						n.Counters.Duplicates++
						n.Chan[src][dst] = append(n.Chan[src][dst], n.Chan[src][dst][k])
						add(trace.Event{Type: trace.EvDuplicate, Action: "DuplicateMessage", Node: dst, Peer: src, Index: k}, n)
					}
				}
			}
		}
	}

	// Network partitions and recovery (TCP failure model).
	if m.opt.Transport == vnet.TCP {
		for a := 0; a < m.n; a++ {
			for bn := a + 1; bn < m.n; bn++ {
				if !s.Part[a].Has(bn) && s.Counters.CanPartition(b) {
					n := clone()
					n.Counters.Partitions++
					m.partition(n, a, bn)
					add(trace.Event{Type: trace.EvPartition, Action: "NetworkPartition", Node: a, Peer: bn}, n)
				}
				if s.Part[a].Has(bn) {
					n := clone()
					m.heal(n, a, bn)
					add(trace.Event{Type: trace.EvRecover, Action: "NetworkRecover", Node: a, Peer: bn}, n)
				}
			}
		}
	}
	return out
}

// overflows enforces the MaxBuffer budget: transitions that would leave any
// channel over the bound are not enumerated.
func (m *Machine) overflows(s *State) bool {
	if m.opt.Budget.MaxBuffer <= 0 {
		return false
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if len(s.Chan[i][j]) > m.opt.Budget.MaxBuffer {
				return true
			}
		}
	}
	return false
}

// takeMsg removes and returns message k of channel src→dst, closing the gap
// in place: s is a successor under construction, and its queues are its own.
func (s *State) takeMsg(src, dst, k int) Msg {
	q := s.Chan[src][dst]
	msg := q[k].unpack()
	s.Chan[src][dst] = q[:k+copy(q[k:], q[k+1:])]
	return msg
}

// send appends a message to a channel unless the connection is severed
// (mirrors vnet.Send dropping across cut pairs).
func (s *State) send(src, dst int, msg Msg) {
	if src == dst || s.Cut[src].Has(dst) {
		return
	}
	s.Chan[src][dst] = append(s.Chan[src][dst], mustPack(msg))
}

// dispatch routes a delivered message to its handler and returns the action
// name for coverage accounting.
func (m *Machine) dispatch(s *State, src, dst int, msg Msg) string {
	switch msg.Type {
	case "rv":
		m.handleRequestVote(s, dst, src, msg)
		return "HandleRequestVote"
	case "rvr":
		m.handleRequestVoteResponse(s, dst, src, msg)
		return "HandleRequestVoteResponse"
	case "ae":
		m.handleAppendEntries(s, dst, src, msg)
		return "HandleAppendEntries"
	case "aer":
		m.handleAppendEntriesResponse(s, dst, src, msg)
		return "HandleAppendEntriesResponse"
	case "snap":
		m.handleSnapshot(s, dst, src, msg)
		return "HandleSnapshot"
	default:
		panic(fmt.Sprintf("raftbase: unknown message type %q", msg.Type))
	}
}

// Environment actions.

func (m *Machine) crash(s *State, i int) {
	s.Up.Del(i)
	for j := 0; j < m.n; j++ {
		if j == i {
			continue
		}
		s.Chan[i][j] = nil
		s.Chan[j][i] = nil
		s.Cut[i].Add(j)
		s.Cut[j].Add(i)
	}
	// Volatile state is lost; we clear it eagerly so fingerprints do not
	// distinguish dead states by unreachable data. Durable state (term,
	// votedFor, log, snapshot) survives.
	s.Role[i] = Follower
	s.Commit[i] = 0
	s.Votes[i] = 0
	s.PreVotes[i] = 0
	s.Next[i] = nil
	s.Match[i] = nil
}

// crashDirty crashes node i losing its unsynced writes: the live durable
// variables roll back to the Dur* mirrors (what the implementation's store
// actually holds on disk), then the ordinary crash clears volatile state.
// Without the durability model this degenerates to a clean crash.
func (m *Machine) crashDirty(s *State, i int) {
	if s.durability {
		s.Term[i] = s.DurTerm[i]
		s.VotedFor[i] = s.DurVote[i]
		s.Log[i] = append([]Entry(nil), s.DurLog[i]...)
	}
	m.crash(s, i)
}

func (m *Machine) restart(s *State, i int) {
	s.Up.Add(i)
	for j := 0; j < m.n; j++ {
		if j == i || !s.Up.Has(j) {
			continue
		}
		if s.Part[i].Has(j) || s.Part[j].Has(i) {
			continue
		}
		s.Cut[i].Del(j)
		s.Cut[j].Del(i)
	}
}

func (m *Machine) partition(s *State, a, b int) {
	s.Part[a].Add(b)
	s.Part[b].Add(a)
	s.Cut[a].Add(b)
	s.Cut[b].Add(a)
	s.Chan[a][b] = nil
	s.Chan[b][a] = nil
}

func (m *Machine) heal(s *State, a, b int) {
	s.Part[a].Del(b)
	s.Part[b].Del(a)
	if s.Up.Has(a) && s.Up.Has(b) {
		s.Cut[a].Del(b)
		s.Cut[b].Del(a)
	}
}

// Actions lists the specification's action names (Table 1's #Act): the
// node-level events Next can fire under this instantiation.
func (m *Machine) Actions() []string {
	acts := []string{
		"TimeoutElection", "TimeoutHeartbeat",
		"HandleRequestVote", "HandleRequestVoteResponse",
		"HandleAppendEntries", "HandleAppendEntriesResponse",
		"NodeCrash", "NodeStart",
	}
	if m.opt.Budget.MaxDirtyCrashes > 0 {
		acts = append(acts, "NodeCrashDirty")
	}
	if m.opt.KV {
		acts = append(acts, "ClientPut", "ClientGet")
	} else {
		acts = append(acts, "ClientRequest")
	}
	if m.opt.Snapshots {
		acts = append(acts, "CompactLog", "HandleSnapshot")
	}
	if m.opt.Transport == vnet.TCP {
		acts = append(acts, "NetworkPartition", "NetworkRecover")
	} else {
		acts = append(acts, "DropMessage", "DuplicateMessage")
	}
	return acts
}
