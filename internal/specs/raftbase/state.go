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
	"slices"
	"strconv"
	"sync"

	"github.com/sandtable-go/sandtable/internal/fp"
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

// Entry is a replicated log entry in its wide form, the one renderings and
// error messages use. Its JSON tags are the implementations' own, so that
// every Entry shares the underlying type trace.Log renders. The state stores
// an entry as two words: its term, and its value's index in the machine's
// vocabulary.
type Entry struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// State is the full specification state: per-node protocol variables, the
// network environment, the budget counters, ghost variables for history
// properties, and the action-property violation flag.
//
// It is a small header and one pointer-free record, W, which the embedded
// spec.Net shares: the network's words come first, then raftbase's (see the
// layout below), so a successor is its parent's record copied into a dead
// state's and edited in place, and a frontier of states gives the collector
// nothing to trace but the header's two cold pointer fields. The messages in
// flight are the Net's other array, Q, whose elements hold no pointer either:
// an AppendEntries keeps its entries in the record's message pool.
type State struct {
	spec.Net[packedMsg]

	n    int    // nodes
	base int    // where raftbase's words start in W (spec.NetWords(n))
	voc  uint32 // the machine's entry-value vocabulary (vocabOf)
	// Feature flags copied from the machine options (not part of the
	// fingerprint; they are constants of the model instance and only steer
	// variable rendering).
	snapshots bool
	kv        bool
	// durability enables the crash-consistency fault model (set when the
	// budget allows dirty crashes): the durable mirrors are then maintained
	// and hashed.
	durability bool
	// Ghost marker: set when a snapshot installation overwrote a
	// conflicting local log — the exact situation CRaft#3's implementation
	// incorrectly rejects; goal-directed conformance uses it to steer a
	// trace into the divergent step.
	SnapConflictInstall bool

	Counters spec.Counters

	// KV ghost (xraftkv): the most recent read, for the linearizability
	// invariant. nil is the zero record (no read yet). A record is never
	// written after clientGet publishes it, so a state shares its parent's.
	LastRead *kvRead

	Viol spec.Violation
}

// The record's layout after the network's words, in words from s.base, for n
// nodes. Eight per-node integer fields (fRole..fDurVote, n words each), the
// Votes and PreVotes sets (two words a node), the sets of nodes whose Next
// and Match rows exist (a leader's), the two n×n row blocks (a row without
// its presence bit is zero), and the end offsets of the variable-length
// regions, which follow in this order: every node's log, every node's
// durable log, the ghost committed log, and the message pool. An entry is
// two words, its term and its value index.
//
// The durability mirrors — what each node's crash-durable storage holds, as
// opposed to the live variables, which may include writes still in the page
// cache (the implementation's buffered vos.Store journal) — are fDurTerm,
// fDurVote and the durable logs. A dirty crash rolls the live state back to
// them; syncDurable is the specification-level fsync. fDurVote follows
// fVotedFor's -1 convention.
const (
	fRole = iota
	fTerm
	fVotedFor
	fCommit
	fSnapIdx
	fSnapTerm
	fDurTerm
	fDurVote
	numFields
)

func votesAt(n int) int    { return numFields * n }
func preVotesAt(n int) int { return (numFields + 2) * n }
func rowsAt(n int) int     { return (numFields + 4) * n } // next presence, then match presence
func nextAt(n int) int     { return rowsAt(n) + 4 }
func matchAt(n int) int    { return nextAt(n) + n*n }
func endsAt(n int) int     { return matchAt(n) + n*n }

// raftWords is the number of fixed words raftbase keeps after the network's.
func raftWords(n int) int { return endsAt(n) + numRegions(n) }

// Regions: node i's log is region i, its durable log n+i, then the ghost
// committed log and the message pool.
func numRegions(n int) int { return 2*n + 2 }
func durLog(n, i int) int  { return n + i }
func committed(n int) int  { return 2 * n }
func pool(n int) int       { return 2*n + 1 }

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

// newState returns the initial state of an n-node instance whose entry values
// come from vocabulary voc: every node a running follower that voted for
// nobody.
func newState(n int, voc uint32) *State {
	s := &State{n: n, base: spec.NetWords(n), voc: voc}
	s.Reset(n, raftWords(n))
	s.SetUp(spec.NodeSet(1)<<n - 1)
	for i := 0; i < n; i++ {
		s.setVotedFor(i, -1)
		s.put(fDurVote, i, -1)
	}
	ends := s.W[s.base+endsAt(n):]
	for r := range ends {
		ends[r] = uint32(len(s.W))
	}
	return s
}

// copyTo makes dst a copy of s — the header by value, the record and the
// messages into dst's own arrays — and returns it; a nil dst is replaced by
// a fresh State, and dst must not be s (spec.BufferedMachine: a caller takes
// the state it steps to out of the buffer's slack with spec.Keep). Nothing
// outside a state points into its arrays — the KV ghost is an immutable
// record, shared — so overwriting a dead state cannot disturb a live one.
func (s *State) copyTo(dst *State) *State {
	if dst == nil {
		dst = new(State)
	}
	net := dst.Net
	*dst = *s
	dst.Net = net
	s.CopyTo(&dst.Net)
	return dst
}

// Field accessors. Every integer is stored as 32 bits (DecodeState refuses
// wider ones).

func (s *State) get(f, i int) int     { return int(int32(s.W[s.base+f*s.n+i])) }
func (s *State) put(f, i, v int)      { s.W[s.base+f*s.n+i] = uint32(int32(v)) }
func (s *State) role(i int) int       { return s.get(fRole, i) }
func (s *State) setRole(i, v int)     { s.put(fRole, i, v) }
func (s *State) term(i int) int       { return s.get(fTerm, i) }
func (s *State) setTerm(i, v int)     { s.put(fTerm, i, v) }
func (s *State) votedFor(i int) int   { return s.get(fVotedFor, i) }
func (s *State) setVotedFor(i, v int) { s.put(fVotedFor, i, v) }
func (s *State) commit(i int) int     { return s.get(fCommit, i) }
func (s *State) setCommit(i, v int)   { s.put(fCommit, i, v) }
func (s *State) snapIdx(i int) int    { return s.get(fSnapIdx, i) }
func (s *State) snapTerm(i int) int   { return s.get(fSnapTerm, i) }
func (s *State) durTerm(i int) int    { return s.get(fDurTerm, i) }
func (s *State) durVote(i int) int    { return s.get(fDurVote, i) }

// setSnapshot sets node i's snapshot boundary.
func (s *State) setSnapshot(i, idx, term int) {
	s.put(fSnapIdx, i, idx)
	s.put(fSnapTerm, i, term)
}

// Votes[i] is the set of nodes that granted i's (real) vote this election,
// PreVotes[i] its pre-vote round. A node counts its own vote first, so an
// empty set is "no election under way" (what used to be a nil row).
func (s *State) votes(i int) spec.NodeSet { return spec.LoadSet(s.W, s.base+votesAt(s.n)+2*i) }
func (s *State) setVotes(i int, v spec.NodeSet) {
	spec.StoreSet(s.W, s.base+votesAt(s.n)+2*i, v)
}
func (s *State) preVotes(i int) spec.NodeSet {
	return spec.LoadSet(s.W, s.base+preVotesAt(s.n)+2*i)
}
func (s *State) setPreVotes(i int, v spec.NodeSet) {
	spec.StoreSet(s.W, s.base+preVotesAt(s.n)+2*i, v)
}

// Leader replication state: node i's Next and Match rows, which exist while
// it leads (hasNext, hasMatch) and are zero otherwise.
func (s *State) nextRows() spec.NodeSet  { return spec.LoadSet(s.W, s.base+rowsAt(s.n)) }
func (s *State) matchRows() spec.NodeSet { return spec.LoadSet(s.W, s.base+rowsAt(s.n)+2) }
func (s *State) hasNext(i int) bool      { return s.nextRows().Has(i) }
func (s *State) hasMatch(i int) bool     { return s.matchRows().Has(i) }
func (s *State) next(i, p int) int {
	return int(int32(s.W[s.base+nextAt(s.n)+i*s.n+p]))
}
func (s *State) setNext(i, p, v int) { s.W[s.base+nextAt(s.n)+i*s.n+p] = uint32(int32(v)) }
func (s *State) match(i, p int) int {
	return int(int32(s.W[s.base+matchAt(s.n)+i*s.n+p]))
}
func (s *State) setMatch(i, p, v int) { s.W[s.base+matchAt(s.n)+i*s.n+p] = uint32(int32(v)) }

// setRows gives node i its Next and Match rows, zeroed, or takes them away.
func (s *State) setRows(i int, on bool) {
	next, match := s.nextRows(), s.matchRows()
	if on {
		next.Add(i)
		match.Add(i)
	} else {
		next.Del(i)
		match.Del(i)
	}
	s.setRowSets(next, match)
	clear(s.row(nextAt(s.n), i))
	clear(s.row(matchAt(s.n), i))
}

// row returns the n words of node i's Next (at = nextAt(n)) or Match
// (matchAt(n)) row.
func (s *State) row(at, i int) []uint32 { return s.W[s.base+at+i*s.n:][:s.n] }

func (s *State) setRowSets(next, match spec.NodeSet) {
	spec.StoreSet(s.W, s.base+rowsAt(s.n), next)
	spec.StoreSet(s.W, s.base+rowsAt(s.n)+2, match)
}

// appendRow appends the values of node i's Next or Match row to dst.
func (s *State) appendRow(dst []int, at, i int) []int {
	for _, w := range s.row(at, i) {
		dst = append(dst, int(int32(w)))
	}
	return dst
}

// Variable-length regions.

// span returns the bounds in W of region r.
func (s *State) span(r int) (int, int) {
	ends := s.W[s.base+endsAt(s.n):]
	start := s.base + raftWords(s.n)
	if r > 0 {
		start = int(ends[r-1])
	}
	return start, int(ends[r])
}

// count returns the number of entries in region r.
func (s *State) count(r int) int {
	a, b := s.span(r)
	return (b - a) / 2
}

// at returns entry k of region r: its term and value index.
func (s *State) at(r, k int) (int, uint32) {
	a, _ := s.span(r)
	return int(int32(s.W[a+2*k])), s.W[a+2*k+1]
}

// resize makes region r words long, keeping its first words and moving the
// regions after it; words it adds are stale until the caller writes them.
func (s *State) resize(r, words int) {
	a, b := s.span(r)
	d := words - (b - a)
	if d == 0 {
		return
	}
	end := len(s.W)
	if d > 0 {
		s.W = slices.Grow(s.W, d)[:end+d]
	}
	copy(s.W[b+d:], s.W[b:end])
	s.W = s.W[:end+d]
	ends := s.W[s.base+endsAt(s.n):][:numRegions(s.n)]
	for q := r; q < len(ends); q++ {
		ends[q] = uint32(int(ends[q]) + d)
	}
}

// push appends an entry to region r.
func (s *State) push(r, term int, val uint32) {
	a, b := s.span(r)
	s.resize(r, b-a+2)
	s.W[b], s.W[b+1] = uint32(int32(term)), val
}

// truncate cuts region r to k entries.
func (s *State) truncate(r, k int) { s.resize(r, 2*k) }

// setRegion makes region r of s a copy of region r2 of o, which may be s
// (a different region, then).
func (s *State) setRegion(r int, o *State, r2 int) {
	a, b := o.span(r2)
	s.resize(r, b-a)
	a, b = o.span(r2) // resizing r moved r2 if o is s and r2 comes after it
	d, _ := s.span(r)
	copy(s.W[d:], o.W[a:b])
}

// entries appends region r's entries to dst in their wide form.
func (s *State) entries(dst []Entry, r int) []Entry {
	vals := s.vocab().vals
	a, b := s.span(r)
	for k := a; k < b; k += 2 {
		dst = append(dst, Entry{Term: int(int32(s.W[k])), Value: vals[s.W[k+1]]})
	}
	return dst
}

// hashRegion writes region r's length and entries into h.
func (s *State) hashRegion(h *fp.Hasher, r int, vals []string) {
	a, b := s.span(r)
	h.WriteInt((b - a) / 2)
	for k := a; k < b; k += 2 {
		h.WriteInt(int(int32(s.W[k])))
		h.WriteString(vals[s.W[k+1]])
	}
}

// dropPrefix removes the first k entries of region r.
func (s *State) dropPrefix(r, k int) {
	a, b := s.span(r)
	copy(s.W[a:], s.W[a+2*k:b])
	s.resize(r, b-a-2*k)
}

// poolLog copies the suffix of node i's log from absolute index from on
// (entries below the snapshot boundary are unavailable) to the end of the
// message pool, for an AppendEntries to carry.
func (s *State) poolLog(i, from int) EntryRange {
	if from <= s.snapIdx(i) {
		from = s.snapIdx(i) + 1
	}
	if from > s.lastIndex(i) {
		return EntryRange{}
	}
	la, lb := s.span(i)
	la += 2 * (from - s.snapIdx(i) - 1)
	pa, pb := s.span(pool(s.n))
	words := lb - la
	s.resize(pool(s.n), pb-pa+words)
	copy(s.W[pb:], s.W[la:lb]) // the pool comes after every log, so resizing it moved none
	return EntryRange{Off: pb - pa, N: words / 2}
}

// msgEntry returns entry k of a message's entries: its term and value index.
func (s *State) msgEntry(e EntryRange, k int) (int, uint32) {
	a, _ := s.span(pool(s.n))
	w := s.W[a+e.Off+2*k:]
	return int(int32(w[0])), w[1]
}

// tidy makes the message pool exactly the queued messages' entries, back to
// back in queue order. A delivery, a drop, a crash or a partition leaves a
// removed message's entries behind, a duplicate shares its original's, and a
// send onto an earlier queue puts its entries after a later queue's; tidy,
// run once a successor is built, rewrites the pool when any of that
// happened, so a record never carries what no message reads.
func (s *State) tidy() {
	a, b := s.span(pool(s.n))
	want := 0
	canonical := true
	for _, m := range s.Q {
		if m.elen > 0 {
			canonical = canonical && int(m.eoff) == want
			want += 2 * int(m.elen)
		}
	}
	if canonical && want == b-a {
		return
	}
	// Build the new pool after the old one, then move it down.
	s.W = slices.Grow(s.W, want)
	end := len(s.W)
	for k := range s.Q {
		m := &s.Q[k]
		if m.elen > 0 {
			at := a + int(m.eoff)
			m.eoff = uint32(len(s.W) - end)
			s.W = append(s.W, s.W[at:at+2*int(m.elen)]...)
		}
	}
	copy(s.W[a:], s.W[end:])
	s.W = s.W[:a+want]
	s.W[s.base+endsAt(s.n)+pool(s.n)] = uint32(a + want)
}

// Log helpers (absolute indexing, snapshot-aware): the entry at position k of
// node i's log has absolute index snapIdx(i)+k+1.

func (s *State) lastIndex(i int) int { return s.snapIdx(i) + s.count(i) }

func (s *State) logTerm(i, abs int) int {
	switch {
	case abs == s.snapIdx(i):
		return s.snapTerm(i)
	case abs > s.snapIdx(i) && abs <= s.lastIndex(i):
		t, _ := s.at(i, abs-s.snapIdx(i)-1)
		return t
	default:
		return 0
	}
}

// entryAt returns node i's entry at absolute index abs, as a term and a
// value index.
func (s *State) entryAt(i, abs int) (int, uint32, bool) {
	if abs > s.snapIdx(i) && abs <= s.lastIndex(i) {
		t, v := s.at(i, abs-s.snapIdx(i)-1)
		return t, v, true
	}
	return 0, 0, false
}

// truncateTo cuts node i's log so lastIndex becomes abs.
func (s *State) truncateTo(i, abs int) {
	if abs < s.snapIdx(i) {
		abs = s.snapIdx(i)
	}
	s.truncate(i, abs-s.snapIdx(i))
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
	var ebuf [32]Entry
	var rbuf [spec.MaxNodes]int
	up := s.Up()
	for i := 0; i < s.n; i++ {
		if s.durability {
			// Durable-storage view (rendered for crashed nodes too — it is
			// exactly what a restart would recover).
			dst[t.durTerm+i] = strconv.Itoa(s.durTerm(i))
			dst[t.durVote+i] = strconv.Itoa(s.durVote(i))
			dst[t.durLog+i] = trace.Log(s.entries(ebuf[:0], durLog(s.n, i)))
		}
		if s.kv {
			dst[t.lastRead+i] = trace.Absent
		}
		if !up.Has(i) {
			dst[t.status+i] = "crashed"
			for _, f := range t.upOnly {
				dst[f+i] = trace.Absent
			}
			continue
		}
		dst[t.status+i] = "up"
		dst[t.role+i] = roleString(s.role(i))
		dst[t.term+i] = strconv.Itoa(s.term(i))
		dst[t.votedFor+i] = strconv.Itoa(s.votedFor(i))
		dst[t.log+i] = trace.Log(s.entries(ebuf[:0], i))
		dst[t.commit+i] = strconv.Itoa(s.commit(i))
		if s.snapshots {
			dst[t.snapshot+i] = strconv.Itoa(s.snapIdx(i)) + "@" + strconv.Itoa(s.snapTerm(i))
		}
		if s.role(i) == Leader {
			dst[t.next+i] = trace.PeerRow(s.rowOrNil(rbuf[:0], nextAt(s.n), i, s.hasNext(i)), i)
			dst[t.match+i] = trace.PeerRow(s.rowOrNil(rbuf[:0], matchAt(s.n), i, s.hasMatch(i)), i)
		} else {
			dst[t.next+i] = "-"
			dst[t.match+i] = "-"
		}
		if s.role(i) == Candidate {
			dst[t.votes+i] = s.votes(i).String()
		} else {
			dst[t.votes+i] = "-"
		}
	}
	s.NetSlots(dst, t.schema)
	if lr := s.lastRead(); s.kv && lr.Key != "" && up.Has(lr.Node) {
		dst[t.lastRead+lr.Node] = lr.Key + "=" + lr.Val
	}
	dst[t.counters] = s.Counters.String()
	dst[t.violation] = s.Viol.Flag
}

// rowOrNil is appendRow for a row that exists, and dst unchanged for one
// that does not.
func (s *State) rowOrNil(dst []int, at, i int, exists bool) []int {
	if !exists {
		return dst
	}
	return s.appendRow(dst, at, i)
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

// permute returns the state with node identities permuted (symmetry
// reduction support).
func (s *State) permute(perm []int) *State {
	n := s.n
	c := newState(n, s.voc)
	c.snapshots, c.kv, c.durability = s.snapshots, s.kv, s.durability
	mapID := func(v int) int {
		if v >= 0 {
			return perm[v]
		}
		return v
	}
	var next, match spec.NodeSet
	for i := 0; i < n; i++ {
		pi := perm[i]
		for f := 0; f < numFields; f++ {
			c.put(f, pi, s.get(f, i))
		}
		c.setVotedFor(pi, mapID(s.votedFor(i)))
		c.put(fDurVote, pi, mapID(s.durVote(i)))
		c.setVotes(pi, s.votes(i).Permute(perm))
		c.setPreVotes(pi, s.preVotes(i).Permute(perm))
		if s.hasNext(i) {
			next.Add(pi)
		}
		if s.hasMatch(i) {
			match.Add(pi)
		}
		for j := 0; j < n; j++ {
			c.setNext(pi, perm[j], s.next(i, j))
			c.setMatch(pi, perm[j], s.match(i, j))
		}
		c.setRegion(pi, s, i)
		c.setRegion(durLog(n, pi), s, durLog(n, i))
	}
	c.setRowSets(next, match)
	c.setRegion(committed(n), s, committed(n))
	c.setRegion(pool(n), s, pool(n))
	spec.PermuteInto(&s.Net, &c.Net, perm)
	c.SnapConflictInstall = s.SnapConflictInstall
	lr := s.lastRead()
	lr.Node = perm[lr.Node]
	c.LastRead = &lr
	c.Counters = s.Counters
	c.Viol = s.Viol
	return c
}
