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

	Up spec.NodeSet

	// Chan[src][dst] queues messages packed: send packs, delivery unpacks.
	Chan [][][]packedMsg
	Cut  []spec.NodeSet
	Part []spec.NodeSet

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
	for i := 0; i < n; i++ {
		for j := range s.Recv[i] {
			s.Recv[i][j] = Vote{Leader: -1}
		}
		s.Vote[i] = Vote{Leader: i}
		s.Recv[i][i] = s.Vote[i]
		s.LeaderID[i] = -1
		s.Up.Add(i)
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
// through their first view.)
type arena struct {
	aflat []int       // non-nil Acked rows
	tflat []Txn       // every History and Committed transaction
	mflat []packedMsg // every queued message
}

// sized returns a[:n], reallocating when a is too small — how a recycled
// state's backing arrays are reused. The contents are stale: callers
// overwrite every element they keep.
func sized[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, n)
	}
	return a[:n]
}

// shape gives c its fixed-shape fields for n nodes: the seven per-node int
// rows carved out of one array; the three per-node sets out of another; Vote
// and the always-square Recv matrix out of a third; and the outers of every
// nil-able row and of the channel matrix. A fresh State
// gets zeroed storage; a recycled one keeps its stale contents, which the
// caller overwrites.
//
// Each array is owned through its first view, which is carved with the
// array's whole capacity (ZState for the ints, Cut for the sets, Vote for the
// votes, Recv, Acked, History, Chan and Chan[0] for the outers), so a
// recycled State finds its storage again by re-extending that view — and
// allocates when the view is too short, whatever built it: a state of fewer
// nodes, Permute, DecodeState. Every other view is exact-capacity. None of
// the owning views is ever appended to or reassigned (a handler that resets
// Recv[i] replaces a row, not the outer), which is what makes them safe
// owners.
func (c *State) shape(n int) {
	c.n = n

	ints := sized(c.ZState[:cap(c.ZState)], 7*n)
	c.ZState = ints[0*n : 1*n]
	c.Round = ints[1*n : 2*n : 2*n]
	c.Epoch = ints[2*n : 3*n : 3*n]
	c.Commit = ints[3*n : 4*n : 4*n]
	c.LeaderID = ints[4*n : 5*n : 5*n]
	c.PendEpoch = ints[5*n : 6*n : 6*n]
	c.Counter = ints[6*n : 7*n : 7*n]

	sets := sized(c.Cut[:cap(c.Cut)], 3*n)
	c.Cut = sets[0:n]
	c.Part = sets[n : 2*n : 2*n]
	c.Synced = sets[2*n : 3*n : 3*n]

	vflat := sized(c.Vote[:cap(c.Vote)], n+n*n)
	c.Vote = vflat[0:n]
	c.Recv = sized(c.Recv[:cap(c.Recv)], n)
	c.Acked = sized(c.Acked[:cap(c.Acked)], n)
	c.History = sized(c.History[:cap(c.History)], n)

	var chanRows [][]packedMsg
	if len(c.Chan) > 0 {
		chanRows = c.Chan[0][:cap(c.Chan[0])]
	}
	chanRows = sized(chanRows, n*n)
	c.Chan = sized(c.Chan[:cap(c.Chan)], n)

	for i := 0; i < n; i++ {
		c.Recv[i] = vflat[n+i*n : n+(i+1)*n : n+(i+1)*n]
		c.Chan[i] = chanRows[i*n : (i+1)*n : (i+1)*n]
	}
	if n > 0 {
		c.Chan[0] = chanRows[0:n]
	}
}

// cloneInto deep-copies s into dst, reusing dst's arena, and returns dst; a
// nil dst is replaced by a fresh State, and dst must not be s. It follows the same
// flat-backing discipline as raftbase: related slices are carved from a few
// shared backing arrays. Every subslice's capacity ends where its own region
// ends (cap == len, plus the slot of slack a channel queue may own), so later
// appends (History, Chan queues, Committed) reallocate rather than growing
// into a neighbour's region; in-place row writes stay within their own
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
	c.Up, c.Activated = s.Up, s.Activated
	copy(c.Cut, s.Cut)
	copy(c.Part, s.Part)
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
	aflat := sized(a.aflat, na)[:0]
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
	tflat := sized(a.tflat, nt)[:0]
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

	// Channels: one flat message array. A recycled arena usually has room to
	// spare, which is handed out as one slot of slack after each queue while
	// it lasts, so that the first send on a channel appends in place. (A
	// state built from scratch is sized exactly: it may be one a caller keeps.)
	nm := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nm += len(s.Chan[i][j])
		}
	}
	mflat := sized(a.mflat, nm)
	mflat = mflat[:min(cap(mflat), nm+n*n)]
	spare := len(mflat) - nm
	off := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			end := off + copy(mflat[off:], s.Chan[i][j])
			slack := min(spare, 1)
			spare -= slack
			c.Chan[i][j] = mflat[off : end : end+slack]
			off = end + slack
		}
	}
	a.mflat = mflat

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

// Vars implements spec.State; rendering matches the implementation's
// Observe output. As in raftbase, keys come from the arity's table and
// values are strconv appends: a conformance walk renders every state.
func (s *State) Vars() map[string]string {
	k := varKeysFor(s.n)
	// net and status, counters, violation, and the up nodes' rows
	m := make(map[string]string, s.n*s.n+2+9*s.Up.Count())
	for i := 0; i < s.n; i++ {
		if !s.Up.Has(i) {
			m[k.status[i]] = "crashed"
			continue
		}
		m[k.status[i]] = "up"
		m[k.state[i]] = stateString(s.ZState[i])
		m[k.round[i]] = strconv.Itoa(s.Round[i])
		m[k.vote[i]] = s.Vote[i].String()
		m[k.epoch[i]] = strconv.Itoa(s.Epoch[i])
		m[k.history[i]] = trace.History(s.History[i])
		m[k.committed[i]] = strconv.Itoa(s.Commit[i])
		m[k.leader[i]] = strconv.Itoa(s.LeaderID[i])
		if s.ZState[i] == Leading {
			m[k.synced[i]] = s.Synced[i].String()
			m[k.acked[i]] = trace.PeerRow(s.Acked[i], i)
		} else {
			m[k.synced[i]] = "-"
			m[k.acked[i]] = "-"
		}
	}
	for src := 0; src < s.n; src++ {
		for dst := 0; dst < s.n; dst++ {
			if src == dst {
				continue
			}
			m[k.net[src][dst]] = strconv.Itoa(len(s.Chan[src][dst]))
		}
	}
	s.Counters.Vars(m)
	m["violation"] = s.Viol.Flag
	return m
}

// varKeys are the keys Vars renders at one arity (trace.NodeKeys,
// trace.NetKeys).
type varKeys struct {
	status, state, round, vote, epoch, history, committed, leader, synced, acked []string
	net                                                                          [][]string
}

var varKeyTables [spec.MaxNodes + 1]struct {
	once sync.Once
	keys *varKeys
}

// varKeysFor returns the (cached, shared, read-only) key table for n nodes.
func varKeysFor(n int) *varKeys {
	e := &varKeyTables[n]
	e.once.Do(func() {
		k := func(name string) []string { return trace.NodeKeys(name, n) }
		e.keys = &varKeys{
			status: k("status"), state: k("state"), round: k("round"), vote: k("vote"),
			epoch: k("epoch"), history: k("history"), committed: k("committed"),
			leader: k("leader"), synced: k("synced"), acked: k("acked"),
			net: trace.NetKeys(n),
		}
	})
	return e.keys
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
		c.Cut[pi] = s.Cut[i].Permute(perm)
		c.Part[pi] = s.Part[i].Permute(perm)
		if s.Acked[i] != nil {
			c.Acked[pi] = make([]int, s.n)
			for j := 0; j < s.n; j++ {
				c.Acked[pi][perm[j]] = s.Acked[i][j]
			}
		} else {
			c.Acked[pi] = nil
		}
		c.Counter[pi] = s.Counter[i]
		for j := 0; j < s.n; j++ {
			if i == j {
				continue
			}
			c.Chan[pi][perm[j]] = permuteMsgs(s.Chan[i][j], perm)
		}
	}
	c.Up, c.Activated = s.Up.Permute(perm), s.Activated.Permute(perm)
	c.Committed = append([]Txn(nil), s.Committed...)
	c.Counters = s.Counters
	c.Viol = s.Viol
	return c
}

func permuteMsgs(msgs []packedMsg, perm []int) []packedMsg {
	out := append([]packedMsg(nil), msgs...)
	for k := range out {
		if out[k].leader >= 0 {
			out[k].leader = int16(perm[out[k].leader])
		}
	}
	return out
}
