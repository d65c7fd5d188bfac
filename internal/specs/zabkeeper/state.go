// Package zabkeeper is the formal specification of the zabkeeper system
// (the ZooKeeper analogue): fast leader election (FLE) with vote
// notifications, a compressed discovery/synchronisation phase, and the Zab
// broadcast phase (propose / ack / commit), over TCP semantics.
//
// Mirroring the paper's adaptation of the official ZooKeeper system spec
// (§4.2), the specification compresses multi-threaded queue hand-offs into
// atomic actions and replaces the message channels with the shared network
// module semantics. The discovery and synchronisation phases are folded
// into one FOLLOWERINFO → SYNC → ACK-NEWLEADER exchange carrying the full
// leader history (a DIFF/SNAP collapsed to SNAP, documented in DESIGN.md).
//
// The ZabKeeper#1 defect (ZOOKEEPER-1419 analogue, "votes are not total
// ordered") is a broken vote comparator that loses antisymmetry when vote
// zxids cross epochs; the VoteTotalOrder invariant detects it.
package zabkeeper

import (
	"strconv"
	"sync"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Server states.
const (
	Looking = iota
	Following
	Leading
)

func stateString(s int) string {
	switch s {
	case Leading:
		return "leading"
	case Following:
		return "following"
	default:
		return "looking"
	}
}

// Txn is one replicated transaction; its zxid is (Epoch, Counter). Its JSON
// tags are the implementation's own, so that both share the underlying type
// trace.History renders.
type Txn struct {
	Epoch   int    `json:"e"`
	Counter int    `json:"c"`
	Value   string `json:"v"`
}

// Vote is an FLE vote: the proposed leader and that leader's last zxid.
type Vote struct {
	Leader  int
	Epoch   int
	Counter int
}

// String renders the vote as "leader@(epoch,counter)".
func (v Vote) String() string { return trace.Vote(v.Leader, v.Epoch, v.Counter) }

// State is the zabkeeper specification state. A frontier holds one per
// state, so the struct is kept small: 32-bit counters, and the storage the
// slices are carved from is found through the slices themselves (see shape)
// instead of being named a second time.
type State struct {
	n int

	Counters spec.Counters

	ZState  []int
	Round   []int
	Vote    []Vote
	Recv    [][]Vote // received votes this round; Leader == -1 marks absent
	Epoch   []int    // current (accepted) epoch, durable
	History [][]Txn  // durable
	Commit  []int    // volatile committed prefix length

	LeaderID  []int
	PendEpoch []int          // leader: epoch being established
	Synced    []spec.NodeSet // followers the leader has synced, itself first; empty when not leading
	Acked     [][]int
	Activated spec.NodeSet
	Counter   []int // leader: next proposal counter

	// Network: liveness, channels (messages stored packed: handlers send
	// mustPack(msg), a delivery unpacks) and severed and partitioned pairs.
	spec.Net[packedMsg]

	// Ghost committed transaction sequence (cluster-wide prefix).
	Committed []Txn

	Viol spec.Violation

	// mem is the variable-length storage cloneInto carved the rows above
	// from (zero for a state built any other way).
	mem arena
}

func newState(n int) *State {
	s := new(State)
	s.shape(n)
	s.Net.Reset(n, 0)
	s.SetUp(spec.NodeSet(1)<<n - 1)
	for i := 0; i < n; i++ {
		for j := range s.Recv[i] {
			s.Recv[i][j] = Vote{Leader: -1}
		}
		s.Vote[i] = Vote{Leader: i}
		s.Recv[i][i] = s.Vote[i]
		s.LeaderID[i] = -1
	}
	return s
}

func emptyRecv(n int) []Vote {
	r := make([]Vote, n)
	for i := range r {
		r[i] = Vote{Leader: -1}
	}
	return r
}

// arena is the variable-length backing storage cloneInto carves a state's
// rows out of; it stays with its State, so recycling the State reuses the
// arrays. (The fixed-shape arrays need no entry here: shape finds them
// through their first view, and the network is spec.Net's two arrays.)
type arena struct {
	aflat []int // non-nil Acked rows
	tflat []Txn // every History and Committed transaction
}

// shape gives c its fixed-shape fields for n nodes (the network is not one
// of them: spec.Net.Reset and CopyTo size it): the seven per-node int rows
// carved out of one array; the Synced sets; Vote and the always-square Recv
// matrix out of a third array; and the outers of every nil-able row. A fresh
// State gets zeroed storage; a recycled one keeps its stale contents, which
// the caller overwrites.
//
// Each array is owned through its first view, which is carved with the
// array's whole capacity (ZState for the ints, Vote for the votes, Synced for
// the sets, Recv, Acked and History for the outers), so a recycled State
// finds its storage again by re-extending that view — and allocates when the view is too
// short, whatever built it: a state of fewer nodes, Permute, DecodeState.
// Every other view is exact-capacity. None of the owning views is ever
// appended to or reassigned (a handler that resets Recv[i] replaces a row,
// not the outer), which is what makes them safe owners.
func (c *State) shape(n int) {
	c.n = n

	ints := spec.Sized(c.ZState[:cap(c.ZState)], 7*n)
	c.ZState = ints[0*n : 1*n]
	c.Round = ints[1*n : 2*n : 2*n]
	c.Epoch = ints[2*n : 3*n : 3*n]
	c.Commit = ints[3*n : 4*n : 4*n]
	c.LeaderID = ints[4*n : 5*n : 5*n]
	c.PendEpoch = ints[5*n : 6*n : 6*n]
	c.Counter = ints[6*n : 7*n : 7*n]

	c.Synced = spec.Sized(c.Synced[:cap(c.Synced)], n)

	vflat := spec.Sized(c.Vote[:cap(c.Vote)], n+n*n)
	c.Vote = vflat[0:n]
	c.Recv = spec.Sized(c.Recv[:cap(c.Recv)], n)
	c.Acked = spec.Sized(c.Acked[:cap(c.Acked)], n)
	c.History = spec.Sized(c.History[:cap(c.History)], n)
	for i := 0; i < n; i++ {
		c.Recv[i] = vflat[n+i*n : n+(i+1)*n : n+(i+1)*n]
	}
}

// cloneInto deep-copies s into dst, reusing dst's arena, and returns dst; a
// nil dst is replaced by a fresh State, and dst must not be s. It follows the same
// flat-backing discipline as raftbase: related slices are carved from a few
// shared backing arrays (the network copies as its two arrays). Every
// subslice's capacity ends where its own region ends (cap == len), so later
// appends (History, Committed) reallocate rather than growing into a
// neighbour's region; in-place row writes stay within their own
// disjoint region; and nothing outside dst points into its arena (Msg.History
// payloads are standalone copies), so overwriting a dead state cannot disturb
// a live one.
func (s *State) cloneInto(dst *State) *State {
	n := s.n
	if dst == nil {
		dst = new(State)
	}
	c, a := dst, &dst.mem
	c.shape(n)
	copy(c.ZState, s.ZState)
	copy(c.Round, s.Round)
	copy(c.Epoch, s.Epoch)
	copy(c.Commit, s.Commit)
	copy(c.LeaderID, s.LeaderID)
	copy(c.PendEpoch, s.PendEpoch)
	copy(c.Counter, s.Counter)
	c.Activated = s.Activated
	s.Net.CopyTo(&c.Net)
	copy(c.Synced, s.Synced)
	copy(c.Vote, s.Vote)
	for i := 0; i < n; i++ {
		copy(c.Recv[i], s.Recv[i])
	}

	// Acked: nil-able leader rows carved from one counted flat array.
	na := 0
	for i := 0; i < n; i++ {
		na += len(s.Acked[i])
	}
	aflat := spec.Sized(a.aflat, na)[:0]
	for i := 0; i < n; i++ {
		c.Acked[i] = nil
		if row := s.Acked[i]; row != nil {
			start := len(aflat)
			aflat = append(aflat, row...)
			c.Acked[i] = aflat[start:len(aflat):len(aflat)]
		}
	}
	a.aflat = aflat

	// History and the ghost Committed sequence: one counted flat Txn array.
	nt := len(s.Committed)
	for i := 0; i < n; i++ {
		nt += len(s.History[i])
	}
	tflat := spec.Sized(a.tflat, nt)[:0]
	cloneTxns := func(ts []Txn) []Txn {
		if len(ts) == 0 {
			return nil
		}
		start := len(tflat)
		tflat = append(tflat, ts...)
		return tflat[start:len(tflat):len(tflat)]
	}
	for i := 0; i < n; i++ {
		c.History[i] = cloneTxns(s.History[i])
	}
	c.Committed = cloneTxns(s.Committed)
	a.tflat = tflat

	c.Counters = s.Counters
	c.Viol = s.Viol
	return c
}

// Fingerprint implements spec.State: the identity-permutation combine of
// the orbit sub-digest decomposition (see orbit.go), so the flat hash, the
// permuted hash, and the incremental min-of-orbit share one layout by
// construction.
func (s *State) Fingerprint() uint64 {
	var buf spec.DigestBuf
	node, edge := buf.Slices(s.n)
	id := spec.IdentityPerm(s.n)
	return s.OrbitCombine(node, edge, s.OrbitDigests(node, edge), id, id)
}

// lastZxid returns node i's last logged zxid.
func (s *State) lastZxid(i int) (epoch, counter int) {
	if len(s.History[i]) == 0 {
		return 0, 0
	}
	t := s.History[i][len(s.History[i])-1]
	return t.Epoch, t.Counter
}

// Schema implements spec.State.
func (s *State) Schema() *trace.Schema { return slotsFor(s.n).schema }

// VarSlots implements spec.State; rendering matches the implementation's
// Observe output. As in raftbase, slots come from the arity's table and
// values are strconv appends: a conformance walk renders every state.
func (s *State) VarSlots(dst []string) {
	t := slotsFor(s.n)
	for i := 0; i < s.n; i++ {
		if !s.Up().Has(i) {
			dst[t.status+i] = "crashed"
			for _, f := range t.upOnly {
				dst[f+i] = trace.Absent
			}
			continue
		}
		dst[t.status+i] = "up"
		dst[t.state+i] = stateString(s.ZState[i])
		dst[t.round+i] = strconv.Itoa(s.Round[i])
		dst[t.vote+i] = s.Vote[i].String()
		dst[t.epoch+i] = strconv.Itoa(s.Epoch[i])
		dst[t.history+i] = trace.History(s.History[i])
		dst[t.committed+i] = strconv.Itoa(s.Commit[i])
		dst[t.leader+i] = strconv.Itoa(s.LeaderID[i])
		if s.ZState[i] == Leading {
			dst[t.synced+i] = s.Synced[i].String()
			dst[t.acked+i] = trace.PeerRow(s.Acked[i], i)
		} else {
			dst[t.synced+i] = "-"
			dst[t.acked+i] = "-"
		}
	}
	s.NetSlots(dst, t.schema)
	dst[t.counters] = s.Counters.String()
	dst[t.violation] = s.Viol.Flag
}

// slotTable is the schema VarSlots renders at one arity and the slot of
// each field's node 0 in it.
type slotTable struct {
	schema *trace.Schema
	status, state, round, vote, epoch, history, committed, leader, synced, acked,
	counters, violation int
	upOnly []int // the fields a crashed node does not render
}

var slotTables [spec.MaxNodes + 1]struct {
	once sync.Once
	t    *slotTable
}

// slotsFor returns the (cached, shared, read-only) slot table for n nodes.
func slotsFor(n int) *slotTable {
	e := &slotTables[n]
	e.once.Do(func() {
		sc := trace.NewSchema(n, []string{"status", "state", "round", "vote", "epoch", "history",
			"committed", "leader", "synced", "acked"}, []string{"counters", "violation"})
		t := &slotTable{schema: sc,
			status: sc.Field("status"), state: sc.Field("state"), round: sc.Field("round"),
			vote: sc.Field("vote"), epoch: sc.Field("epoch"), history: sc.Field("history"),
			committed: sc.Field("committed"), leader: sc.Field("leader"),
			synced: sc.Field("synced"), acked: sc.Field("acked"),
		}
		t.counters, _ = sc.Slot("counters")
		t.violation, _ = sc.Slot("violation")
		t.upOnly = []int{t.state, t.round, t.vote, t.epoch, t.history, t.committed, t.leader, t.synced, t.acked}
		e.t = t
	})
	return e.t
}

// permute returns the node-permuted state (symmetry reduction).
func (s *State) permute(perm []int) *State {
	c := newState(s.n)
	mapID := func(id int) int {
		if id < 0 {
			return id
		}
		return perm[id]
	}
	mapVote := func(v Vote) Vote {
		v.Leader = mapID(v.Leader)
		return v
	}
	for i := 0; i < s.n; i++ {
		pi := perm[i]
		c.ZState[pi] = s.ZState[i]
		c.Round[pi] = s.Round[i]
		c.Vote[pi] = mapVote(s.Vote[i])
		for j := 0; j < s.n; j++ {
			c.Recv[pi][perm[j]] = mapVote(s.Recv[i][j])
		}
		c.Epoch[pi] = s.Epoch[i]
		c.History[pi] = append([]Txn(nil), s.History[i]...)
		c.Commit[pi] = s.Commit[i]
		c.LeaderID[pi] = mapID(s.LeaderID[i])
		c.PendEpoch[pi] = s.PendEpoch[i]
		c.Synced[pi] = s.Synced[i].Permute(perm)
		if s.Acked[i] != nil {
			c.Acked[pi] = make([]int, s.n)
			for j := 0; j < s.n; j++ {
				c.Acked[pi][perm[j]] = s.Acked[i][j]
			}
		} else {
			c.Acked[pi] = nil
		}
		c.Counter[pi] = s.Counter[i]
	}
	spec.PermuteInto(&s.Net, &c.Net, perm)
	c.Activated = s.Activated.Permute(perm)
	c.Committed = append([]Txn(nil), s.Committed...)
	c.Counters = s.Counters
	c.Viol = s.Viol
	return c
}
