// Package raftbase is the specification engine shared by the Raft-family
// system specifications (gosyncobj, craft, redisraft, daosraft, asyncraft,
// xraft, xraftkv). Each system instantiates it with a Profile selecting the
// system's protocol dialect (reply formulas, optimistic next-index advance,
// PreVote, log compaction, KV operations) and its bugdb defect set; the
// resulting machine mirrors the corresponding implementation in
// internal/systems handler-for-handler, which is what conformance checking
// (§3.2) demands of a SandTable specification: it describes the actual,
// potentially buggy implementation, not the idealised protocol.
//
// The network sub-state is spec.Net, the paper's reusable TCP/UDP network
// specification module: per-ordered-pair FIFO channels under TCP semantics
// (with partitions as the only failure), and indexed buffers with loss,
// duplication, and out-of-order delivery under UDP semantics.
package raftbase

import (
	"strconv"
	"sync"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Role values (rendered identically by the implementations' Observe).
const (
	Follower = iota
	PreCandidate
	Candidate
	Leader
)

func roleString(r int) string {
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

// Entry is a replicated log entry (value-semantics; indexes are absolute and
// implicit: the entry at slice position k of node i has absolute index
// snapIndex[i]+k+1). Its JSON tags are the implementations' own, so that
// every Entry shares the underlying type trace.Log renders.
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// State is the full specification state: per-node protocol variables, the
// network environment, the budget counters, ghost variables for history
// properties, and the action-property violation flag.
//
// A frontier holds one of these per state, so the struct is kept small: the
// bools sit together beside the 32-bit counters, the cold KV ghost is behind
// a pointer, and the storage the slices are carved from is found through the
// slices themselves (see shape) instead of being named a second time.
type State struct {
	n int
	// Feature flags copied from the machine options (not part of the
	// fingerprint; they are constants of the model instance and only steer
	// variable rendering).
	snapshots bool
	kv        bool
	// durability enables the crash-consistency fault model (set when the
	// budget allows dirty crashes): the Dur* mirrors below are then
	// maintained and hashed.
	durability bool
	// Ghost marker: set when a snapshot installation overwrote a
	// conflicting local log — the exact situation CRaft#3's implementation
	// incorrectly rejects; goal-directed conformance uses it to steer a
	// trace into the divergent step.
	SnapConflictInstall bool

	Counters spec.Counters

	Role     []int
	Term     []int
	VotedFor []int
	Log      [][]Entry
	Commit   []int
	SnapIdx  []int
	SnapTerm []int

	// Votes[i] is the set of nodes that granted i's (real) vote this election,
	// PreVotes[i] its pre-vote round. A node counts its own vote first, so an
	// empty set is "no election under way" (what used to be a nil row).
	Votes    []spec.NodeSet
	PreVotes []spec.NodeSet
	Next     [][]int // leader replication state; nil rows when not leader
	Match    [][]int

	// Durability mirrors: what each node's crash-durable storage holds, as
	// opposed to the live variables above, which may include writes still
	// in the page cache (written but not fsynced — the implementation's
	// buffered vos.Store journal). A dirty crash rolls the live state back
	// to these. Maintained only when durability is set; syncDurable is the
	// specification-level fsync. DurVote follows VotedFor's -1 convention.
	DurTerm []int
	DurVote []int
	DurLog  [][]Entry

	// Network: liveness, channels (messages stored packed: handlers send
	// mustPack(msg), a delivery unpacks) and severed and partitioned pairs.
	spec.Net[packedMsg]

	// Ghost: the globally committed log prefix, extended whenever any
	// node's commit index advances past its length. Detects inconsistent
	// committed logs (CRaft#2) and durability loss (AsyncRaft#2), and is
	// the linearizability reference for KV reads.
	Committed []Entry

	// KV ghost (xraftkv): the most recent read, for the linearizability
	// invariant. nil is the zero record (no read yet). A record is never
	// written after clientGet publishes it, so a state shares its parent's.
	LastRead *kvRead

	Viol spec.Violation

	// mem is the variable-length storage cloneInto carved the rows above
	// from (zero for a state built any other way).
	mem arena
}

// kvRead is one KV read and the value linearizability demanded of it.
type kvRead struct {
	Node           int
	Key, Val, Want string
	Bad            bool
}

// lastRead returns the KV ghost by value.
func (s *State) lastRead() kvRead {
	if s.LastRead == nil {
		return kvRead{}
	}
	return *s.LastRead
}

func newState(n int) *State {
	s := new(State)
	s.shape(n)
	for i := 0; i < n; i++ {
		s.VotedFor[i] = -1
		s.DurVote[i] = -1
		s.Up.Add(i)
	}
	return s
}

// arena is the variable-length backing storage cloneInto carves a state's
// rows out of. It stays with the State it was allocated for, so recycling
// that State reuses every array that is still large enough. (The fixed-shape
// arrays need no entry here: shape finds them through their first view, and
// the queued messages are spec.Net's.)
type arena struct {
	iflat []int   // non-nil Next/Match rows
	eflat []Entry // every Log, DurLog and Committed entry
}

// shape gives c its fixed-shape fields for n nodes: the eight per-node int
// rows carved out of one array, the network's matrix and sets with Votes and
// PreVotes carved after them (spec.Net.Shape), and the outers of every
// nil-able row. A fresh State gets zeroed storage; a recycled one keeps its
// stale contents, which the caller overwrites.
//
// Each array is owned through its first view, which is carved with the
// array's whole capacity (Role for the ints, Next and Log for the outers),
// so a recycled State finds its storage again by re-extending that view — and
// allocates when the view is too short, whatever built it: a state of fewer
// nodes, Permute, DecodeState. Every other view is exact-capacity
// (three-index). None of the owning views is ever appended to or reassigned,
// only written element-wise, which is what makes them safe owners.
func (c *State) shape(n int) {
	c.n = n

	ints := spec.Sized(c.Role[:cap(c.Role)], 8*n)
	c.Role = ints[0*n : 1*n]
	c.Term = ints[1*n : 2*n : 2*n]
	c.VotedFor = ints[2*n : 3*n : 3*n]
	c.Commit = ints[3*n : 4*n : 4*n]
	c.SnapIdx = ints[4*n : 5*n : 5*n]
	c.SnapTerm = ints[5*n : 6*n : 6*n]
	c.DurTerm = ints[6*n : 7*n : 7*n]
	c.DurVote = ints[7*n : 8*n : 8*n]

	sets := c.Net.Shape(n, 2)
	c.Votes = sets[0:n:n]
	c.PreVotes = sets[n : 2*n : 2*n]

	intRows := spec.Sized(c.Next[:cap(c.Next)], 2*n)
	c.Next = intRows[0:n]
	c.Match = intRows[n : 2*n : 2*n]
	logRows := spec.Sized(c.Log[:cap(c.Log)], 2*n)
	c.Log = logRows[0:n]
	c.DurLog = logRows[n : 2*n : 2*n]
}

// cloneInto deep-copies s into dst, reusing dst's arena (the
// reset-don't-reallocate discipline: cloneInto runs once per generated
// successor and used to dominate the explorer's allocation profile), and
// returns dst; a nil dst is replaced by a fresh State, and dst must not be s
// (spec.BufferedMachine: a caller takes the state it steps to out of the
// buffer's slack with spec.Keep). Related
// slices are carved out of a handful of shared backing arrays with
// exact-capacity (three-index) subslices instead of one allocation each.
//
// Safety of the shared backing rests on two facts: every row that can grow
// is carved with its capacity ending where its own region ends (cap == len,
// plus the slot of slack a channel queue may own), so any later append (Log,
// DurLog, Chan queues, Committed) reallocates instead of growing into a
// neighbour's region; and in-place writes (Next[i][j] = k, spec.Net.Take)
// stay within the row's own disjoint region. Nothing outside dst ever points into
// dst's arena — message payloads (Msg.Entries) are standalone arrays and the
// KV ghost an immutable record, both shared read-only — so overwriting a dead
// state cannot disturb a live one.
func (s *State) cloneInto(dst *State) *State {
	n := s.n
	if dst == nil {
		dst = new(State)
	}
	c, a := dst, &dst.mem
	c.snapshots, c.kv, c.durability = s.snapshots, s.kv, s.durability
	c.shape(n)
	copy(c.Role, s.Role)
	copy(c.Term, s.Term)
	copy(c.VotedFor, s.VotedFor)
	copy(c.Commit, s.Commit)
	copy(c.SnapIdx, s.SnapIdx)
	copy(c.SnapTerm, s.SnapTerm)
	copy(c.DurTerm, s.DurTerm)
	copy(c.DurVote, s.DurVote)
	s.Net.CloneInto(&c.Net)
	copy(c.Votes, s.Votes)
	copy(c.PreVotes, s.PreVotes)

	// Next/Match: non-nil rows carved from one flat array.
	ni := 0
	for i := 0; i < n; i++ {
		ni += len(s.Next[i]) + len(s.Match[i])
	}
	iflat := spec.Sized(a.iflat, ni)[:0]
	cloneIntRow := func(row []int) []int {
		if row == nil {
			return nil
		}
		start := len(iflat)
		iflat = append(iflat, row...)
		return iflat[start:len(iflat):len(iflat)]
	}
	for i := 0; i < n; i++ {
		c.Next[i] = cloneIntRow(s.Next[i])
		c.Match[i] = cloneIntRow(s.Match[i])
	}
	a.iflat = iflat

	// Log/DurLog/Committed entries: one flat entry array for every copied
	// entry.
	ne := len(s.Committed)
	for i := 0; i < n; i++ {
		ne += len(s.Log[i]) + len(s.DurLog[i])
	}
	eflat := spec.Sized(a.eflat, ne)[:0]
	cloneEntries := func(es []Entry) []Entry {
		if len(es) == 0 {
			return nil
		}
		start := len(eflat)
		eflat = append(eflat, es...)
		return eflat[start:len(eflat):len(eflat)]
	}
	for i := 0; i < n; i++ {
		c.Log[i] = cloneEntries(s.Log[i])
		c.DurLog[i] = cloneEntries(s.DurLog[i])
	}
	c.Committed = cloneEntries(s.Committed)
	a.eflat = eflat

	c.SnapConflictInstall = s.SnapConflictInstall
	c.LastRead = s.LastRead
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

// Schema implements spec.State.
func (s *State) Schema() *trace.Schema { return s.slots().schema }

// VarSlots implements spec.State; the rendering matches the
// implementations' Observe output and the engine's network variables so
// conformance can compare them slot by slot. A conformance walk renders
// every state it steps to, so values are strconv appends into the arity's
// and dialect's slot table.
func (s *State) VarSlots(dst []string) {
	t := s.slots()
	for i := 0; i < s.n; i++ {
		if s.durability {
			// Durable-storage view (rendered for crashed nodes too — it is
			// exactly what a restart would recover).
			dst[t.durTerm+i] = strconv.Itoa(s.DurTerm[i])
			dst[t.durVote+i] = strconv.Itoa(s.DurVote[i])
			dst[t.durLog+i] = trace.Log(s.DurLog[i])
		}
		if s.kv {
			dst[t.lastRead+i] = trace.Absent
		}
		if !s.Up.Has(i) {
			dst[t.status+i] = "crashed"
			for _, f := range t.upOnly {
				dst[f+i] = trace.Absent
			}
			continue
		}
		dst[t.status+i] = "up"
		dst[t.role+i] = roleString(s.Role[i])
		dst[t.term+i] = strconv.Itoa(s.Term[i])
		dst[t.votedFor+i] = strconv.Itoa(s.VotedFor[i])
		dst[t.log+i] = trace.Log(s.Log[i])
		dst[t.commit+i] = strconv.Itoa(s.Commit[i])
		if s.snapshots {
			dst[t.snapshot+i] = strconv.Itoa(s.SnapIdx[i]) + "@" + strconv.Itoa(s.SnapTerm[i])
		}
		if s.Role[i] == Leader {
			dst[t.next+i] = trace.PeerRow(s.Next[i], i)
			dst[t.match+i] = trace.PeerRow(s.Match[i], i)
		} else {
			dst[t.next+i] = "-"
			dst[t.match+i] = "-"
		}
		if s.Role[i] == Candidate {
			dst[t.votes+i] = s.Votes[i].String()
		} else {
			dst[t.votes+i] = "-"
		}
	}
	s.NetSlots(dst, t.schema)
	if lr := s.lastRead(); s.kv && lr.Key != "" && s.Up.Has(lr.Node) {
		dst[t.lastRead+lr.Node] = lr.Key + "=" + lr.Val
	}
	dst[t.counters] = s.Counters.String()
	dst[t.violation] = s.Viol.Flag
}

// slotTable is the schema VarSlots renders at one arity and dialect, and
// the slot of each field's node 0 in it (-1 for a field the dialect lacks).
type slotTable struct {
	schema *trace.Schema
	status, role, term, votedFor, log, commit, next, match, votes,
	snapshot, lastRead, durTerm, durVote, durLog, counters, violation int
	upOnly []int // the fields a crashed node does not render
}

// slotTables caches one table per arity and dialect: bit 0 durability, bit
// 1 snapshots, bit 2 the KV read ghost.
var slotTables [spec.MaxNodes + 1][8]struct {
	once sync.Once
	t    *slotTable
}

// slots returns the state's (cached, shared, read-only) slot table, built
// on first use the way spec.PermTableFor builds permutations.
func (s *State) slots() *slotTable {
	dialect := 0
	if s.durability {
		dialect |= 1
	}
	if s.snapshots {
		dialect |= 2
	}
	if s.kv {
		dialect |= 4
	}
	e := &slotTables[s.n][dialect]
	e.once.Do(func() {
		fields := []string{"status", "role", "term", "votedFor", "log", "commit", "next", "match", "votes"}
		if s.snapshots {
			fields = append(fields, "snapshot")
		}
		if s.kv {
			fields = append(fields, "lastRead")
		}
		if s.durability {
			fields = append(fields, "durTerm", "durVote", "durLog")
		}
		sc := trace.NewSchema(s.n, fields, []string{"counters", "violation"})
		t := &slotTable{schema: sc,
			status: sc.Field("status"), role: sc.Field("role"), term: sc.Field("term"),
			votedFor: sc.Field("votedFor"), log: sc.Field("log"), commit: sc.Field("commit"),
			next: sc.Field("next"), match: sc.Field("match"), votes: sc.Field("votes"),
			snapshot: sc.Field("snapshot"), lastRead: sc.Field("lastRead"),
			durTerm: sc.Field("durTerm"), durVote: sc.Field("durVote"), durLog: sc.Field("durLog"),
		}
		t.counters, _ = sc.Slot("counters")
		t.violation, _ = sc.Slot("violation")
		t.upOnly = []int{t.role, t.term, t.votedFor, t.log, t.commit, t.next, t.match, t.votes}
		if s.snapshots {
			t.upOnly = append(t.upOnly, t.snapshot)
		}
		e.t = t
	})
	return e.t
}

// Log helpers (absolute indexing, snapshot-aware).

func (s *State) lastIndex(i int) int { return s.SnapIdx[i] + len(s.Log[i]) }

func (s *State) logTerm(i, abs int) int {
	switch {
	case abs == s.SnapIdx[i]:
		return s.SnapTerm[i]
	case abs > s.SnapIdx[i] && abs <= s.lastIndex(i):
		return s.Log[i][abs-s.SnapIdx[i]-1].Term
	default:
		return 0
	}
}

func (s *State) entryAt(i, abs int) (Entry, bool) {
	if abs > s.SnapIdx[i] && abs <= s.lastIndex(i) {
		return s.Log[i][abs-s.SnapIdx[i]-1], true
	}
	return Entry{}, false
}

// entriesFrom copies the suffix of node i's log starting at absolute index
// from (entries below the snapshot boundary are unavailable).
func (s *State) entriesFrom(i, from int) []Entry {
	if from <= s.SnapIdx[i] {
		from = s.SnapIdx[i] + 1
	}
	if from > s.lastIndex(i) {
		return nil
	}
	return append([]Entry(nil), s.Log[i][from-s.SnapIdx[i]-1:]...)
}

// truncateTo cuts node i's log so lastIndex becomes abs.
func (s *State) truncateTo(i, abs int) {
	if abs < s.SnapIdx[i] {
		abs = s.SnapIdx[i]
	}
	s.Log[i] = s.Log[i][:abs-s.SnapIdx[i]]
}

// Permute returns the state with node identities permuted (symmetry
// reduction support).
func (s *State) permute(perm []int) *State {
	c := newState(s.n)
	c.snapshots = s.snapshots
	c.kv = s.kv
	c.durability = s.durability
	for i := 0; i < s.n; i++ {
		pi := perm[i]
		c.Role[pi] = s.Role[i]
		c.Term[pi] = s.Term[i]
		if s.VotedFor[i] >= 0 {
			c.VotedFor[pi] = perm[s.VotedFor[i]]
		} else {
			c.VotedFor[pi] = -1
		}
		c.Log[pi] = append([]Entry(nil), s.Log[i]...)
		c.DurTerm[pi] = s.DurTerm[i]
		if s.DurVote[i] >= 0 {
			c.DurVote[pi] = perm[s.DurVote[i]]
		} else {
			c.DurVote[pi] = -1
		}
		c.DurLog[pi] = append([]Entry(nil), s.DurLog[i]...)
		c.Commit[pi] = s.Commit[i]
		c.SnapIdx[pi] = s.SnapIdx[i]
		c.SnapTerm[pi] = s.SnapTerm[i]
		c.Votes[pi] = s.Votes[i].Permute(perm)
		c.PreVotes[pi] = s.PreVotes[i].Permute(perm)
		if s.Next[i] != nil {
			c.Next[pi] = permuteInts(s.Next[i], perm)
		} else {
			c.Next[pi] = nil
		}
		if s.Match[i] != nil {
			c.Match[pi] = permuteInts(s.Match[i], perm)
		} else {
			c.Match[pi] = nil
		}
	}
	spec.PermuteInto(&s.Net, &c.Net, perm)
	c.Committed = append([]Entry(nil), s.Committed...)
	c.SnapConflictInstall = s.SnapConflictInstall
	lr := s.lastRead()
	lr.Node = perm[lr.Node]
	c.LastRead = &lr
	c.Counters = s.Counters
	c.Viol = s.Viol
	return c
}

func permuteInts(v []int, perm []int) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[perm[i]] = x
	}
	return out
}
