package raftbase

import (
	"fmt"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
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
	Transport spec.Semantics
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
	// voc is the vocabulary of entry values (see vocab), and vals the index
	// in it of each Config.Workload value a client request logs: v, or
	// "x=v" under KV.
	voc  uint32
	vals []uint32
}

// New builds the machine. The state keeps per-node sets as spec.NodeSet bit
// masks, so a configuration beyond spec.MaxNodes is a caller's bug (the run
// layer refuses one with an error before it gets here).
func New(opt Options) *Machine {
	if opt.Config.Nodes > spec.MaxNodes {
		panic(fmt.Sprintf("raftbase: %d nodes, a state indexes at most %d", opt.Config.Nodes, spec.MaxNodes))
	}
	logged := opt.Config.Workload
	if opt.KV {
		logged = make([]string, len(opt.Config.Workload))
		for k, v := range opt.Config.Workload {
			logged[k] = kvKey + "=" + v
		}
	}
	m := &Machine{opt: opt, n: opt.Config.Nodes, voc: internVocab(logged)}
	voc := vocabOf(m.voc)
	for _, v := range logged {
		m.vals = append(m.vals, voc.idx[v])
	}
	return m
}

// kvKey is the one key the KV workload writes and reads.
const kvKey = "x"

// header returns a state of the machine's instance — arity, vocabulary and
// feature flags — with no record yet.
func (m *Machine) header() *State {
	return &State{n: m.n, base: spec.NetWords(m.n), voc: m.voc,
		snapshots: m.opt.Snapshots, kv: m.opt.KV, durability: m.opt.Budget.MaxDirtyCrashes > 0}
}

// newState returns the machine's initial state.
func (m *Machine) newState() *State {
	s := m.header()
	s.init()
	return s
}

// Name implements spec.Machine.
func (m *Machine) Name() string { return m.opt.System }

// Options exposes the instantiation (used by integrations).
func (m *Machine) Options() Options { return m.opt }

// Init implements spec.Machine.
func (m *Machine) Init() []spec.State {
	return []spec.State{m.newState()}
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
// the buffer's slack, the successor states themselves: each successor is its
// parent's record copied into the dead state its slot still holds from an
// earlier call, then edited in place.
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
	clone := func() *State { return s.copyTo(spec.Dead[*State](out)) }
	add := func(ev trace.Event, n *State) {
		if n.Overflows(m.opt.Budget.MaxBuffer) {
			return
		}
		n.tidy()
		out = append(out, spec.Succ{Event: ev, State: n})
	}

	b := m.opt.Budget
	up := s.Up()
	for i := 0; i < m.n; i++ {
		if !up.Has(i) {
			continue
		}
		// Election timeout: any non-leader may time out at any moment.
		role := s.role(i)
		if role != Leader && s.Counters.CanTimeout(b) {
			n := clone()
			n.Counters.Timeouts++
			m.electionTimeout(n, i)
			add(trace.Event{Type: trace.EvTimeout, Action: "TimeoutElection", Node: i, Payload: "election"}, n)
		}
		// Heartbeat timeout: leaders replicate on their heartbeat timer.
		if role == Leader && s.Counters.CanTimeout(b) {
			n := clone()
			n.Counters.Timeouts++
			m.broadcastAppend(n, i)
			add(trace.Event{Type: trace.EvTimeout, Action: "TimeoutHeartbeat", Node: i, Payload: "heartbeat"}, n)
		}
		// Client requests are served by leaders.
		if role == Leader && s.Counters.CanRequest(b) {
			if m.opt.KV {
				for k, v := range m.opt.Config.Workload {
					n := clone()
					n.Counters.Requests++
					m.clientAppend(n, i, m.vals[k])
					add(trace.Event{Type: trace.EvRequest, Action: "ClientPut", Node: i, Payload: "put x " + v}, n)
				}
				if m.getEnabled(s, i) {
					n := clone()
					n.Counters.Requests++
					m.clientGet(n, i, kvKey)
					add(trace.Event{Type: trace.EvRequest, Action: "ClientGet", Node: i, Payload: "get x"}, n)
				}
			} else {
				for k, v := range m.opt.Config.Workload {
					n := clone()
					n.Counters.Requests++
					m.clientAppend(n, i, m.vals[k])
					add(trace.Event{Type: trace.EvRequest, Action: "ClientRequest", Node: i, Payload: v}, n)
				}
			}
		}
		// Log compaction (snapshotting systems): an internal admin action.
		if m.opt.Snapshots && role == Leader && s.commit(i) > s.snapIdx(i) && s.Counters.CanCompact(b) {
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
	// Restarts, deliveries, UDP drops and duplicates, TCP partitions and
	// recoveries.
	s.Events(&s.Counters, b, m.opt.Transport, func(ev trace.Event) {
		n := clone()
		if msg, ok := n.Apply(ev, &n.Counters); ok {
			ev.Action = m.dispatch(n, ev.Peer, ev.Node, msg.unpack())
		}
		add(ev, n)
	})
	return out
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

// crash is the protocol half of node i crashing (spec.Net.Crash is the
// network half).
func (m *Machine) crash(s *State, i int) {
	s.Crash(i)
	// Volatile state is lost; we clear it eagerly so fingerprints do not
	// distinguish dead states by unreachable data. Durable state (term,
	// votedFor, log, snapshot) survives.
	s.setRole(i, Follower)
	s.setCommit(i, 0)
	s.setVotes(i, 0)
	s.setPreVotes(i, 0)
	s.setRows(i, false)
}

// crashDirty crashes node i losing its unsynced writes: the live durable
// variables roll back to the Dur* mirrors (what the implementation's store
// actually holds on disk), then the ordinary crash clears volatile state.
// Without the durability model this degenerates to a clean crash.
func (m *Machine) crashDirty(s *State, i int) {
	if s.durability {
		s.setTerm(i, s.durTerm(i))
		s.setVotedFor(i, s.durVote(i))
		s.setRegion(i, s, durLog(s.n, i))
	}
	m.crash(s, i)
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
	if m.opt.Transport == spec.TCP {
		acts = append(acts, "NetworkPartition", "NetworkRecover")
	} else {
		acts = append(acts, "DropMessage", "DuplicateMessage")
	}
	return acts
}
