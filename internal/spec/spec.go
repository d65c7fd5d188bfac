// Package spec defines SandTable's specification framework: the state-machine
// abstraction over which the explorer performs specification-level model
// checking (§3.1 of the paper).
//
// A specification is a state machine with an initial-state set, a successor
// relation (actions with preconditions that fire node-level events such as
// message handling, timeouts, client requests, and failures), correctness
// properties (safety invariants used as bug oracles), and state constraints
// that bound the exploration (budget constraints on timeouts, crashes,
// client requests, and network operations).
//
// Where the paper writes specifications in TLA+ and explores them with TLC,
// this reproduction writes them as Go state machines and explores them with
// the internal/explorer package, which reimplements TLC's stateful BFS and
// simulation (random walk) modes.
//
// There is one contract, Machine. The engine calls AppendNext,
// OrbitFingerprint, Actions and the codec; AppendNext into a nil buffer,
// Permute and State.Fingerprint are the slow, obviously-right definitions
// those are held to by spectest.AssertContract. Symmetry reduction is the
// checker's, as in TLC: a family supplies its state's sub-digests (Orbit),
// and this package derives the canonical fingerprint from them (OrbitMin).
package spec

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// State is one specification-level system state. Implementations must be
// treated as immutable once returned from Init or AppendNext: actions clone
// the state, mutate the clone, and return it. (A successor handed out
// through a reused AppendNext buffer lives only as long as its slot: see
// BufferedMachine.)
type State interface {
	// Fingerprint returns a canonical 64-bit digest of the state. Equal
	// states must produce equal fingerprints; the explorer treats distinct
	// states with colliding fingerprints as identical (the same engineering
	// tradeoff TLC makes).
	Fingerprint() uint64
	// Schema is the state's slot vocabulary, the same for every state of a
	// machine (each family caches one per arity and dialect): per-node
	// variables for each node, net[src->dst], then the globals.
	Schema() *trace.Schema
	// VarSlots renders every specification variable to a canonical string
	// in dst[:Schema().Len()], or trace.Absent for a key the state does not
	// hold. The conformance checker compares these slots with the
	// implementation's, so a passing step builds no map.
	VarSlots(dst []string)
}

// VarsOf renders s's variables as the map its slots hold, keyed by variable
// name (per-node variables use "var[i]" keys). It is what a trace that is
// written out carries.
func VarsOf(s State) map[string]string {
	sc := s.Schema()
	dst := make([]string, sc.Len())
	s.VarSlots(dst)
	return sc.Map(dst)
}

// Succ is one enabled transition out of a state: the node-level event that
// fires it and the successor state it produces.
type Succ struct {
	Event trace.Event
	State State
}

// Invariant is a named safety property. Check returns nil when the property
// holds in the given state and a descriptive error when it is violated.
type Invariant struct {
	Name  string
	Check func(State) error
}

// Machine is a system specification: a state machine suitable for model
// checking. Implementations live in internal/specs/<system>. Every method is
// required; the embedded facets only group them (and name what a helper that
// needs less than a whole machine takes).
type Machine interface {
	// Name identifies the specification (e.g. "gosyncobj").
	Name() string
	// Init returns the initial states.
	Init() []State
	// Next is AppendNext(s, nil). Nothing in this module calls it; it stays
	// in the contract because benchmark/probe's tests call it through
	// Machine.
	Next(s State) []Succ
	// Invariants returns the safety properties checked on every state.
	Invariants() []Invariant

	BufferedMachine
	OrbitHasher
	ActionLister
	StateCodec
}

// BufferedMachine is successor enumeration into a caller-owned buffer.
//
// Ownership rules: the caller owns buf[:len(buf)] and the returned slice
// (which may share buf's backing array); the machine must not retain either
// across calls, and never writes the parent s. The slack buf[len(buf):cap(buf)]
// belongs to the machine: a State left there by an earlier call is dead, and
// the machine may overwrite it in place to build the next successors — so a
// successor is valid only until the next AppendNext that is handed its slot.
// A caller that needs one for longer takes it out with Keep first; that
// includes the common "step to a successor and enumerate from it through the
// same buffer"; Keep may leave a dead state of the caller's in the slot it
// empties, to be recycled like any other. Slack the machine cannot use — nil,
// a state of another machine or another size — is replaced, never an error.
type BufferedMachine interface {
	// AppendNext appends every enabled transition from s to buf and returns
	// the extended slice. The successors must already satisfy the machine's
	// budget accounting (no transition that exceeds a budget is enumerated).
	AppendNext(s State, buf []Succ) []Succ
}

// Keep takes successor i's state out of buf: it returns buf[i].State and
// stores dead in the slot, so that no later AppendNext on buf can recycle the
// returned state. dead is nil, or a state handed back for a later AppendNext
// to build a successor in instead of allocating one: a walk hands back the
// state it leaves. Only a state the caller took out of a buffer with Keep and
// no longer reads may be handed back, never one Init returned (Init promises
// no fresh states). A caller that keeps every state it steps to (a search's
// frontier, a replayed candidate) passes nil.
func Keep(buf []Succ, i int, dead State) State {
	s := buf[i].State
	buf[i].State = dead
	return s
}

// Dead is the machine's half of the ownership rule that Keep is the caller's
// half of: it returns the dead state in the slot the next append to out
// fills, for the machine to build that successor in, or S's zero value when
// out has no slack or the slot holds anything but an S.
func Dead[S State](out []Succ) S {
	var dead S
	if len(out) < cap(out) {
		dead, _ = out[:len(out)+1][len(out)].State.(S)
	}
	return dead
}

// Symmetric is the node-permutation action symmetry reduction rests on
// (§3.3: "permuting the nodes and workload values does not change whether an
// action satisfies an invariant"). NumNodes() <= 1 means there is nothing to
// permute. Permute materialises the permuted state and is the oracle
// OrbitFingerprint is checked against; the engine never calls it. The laws:
// invariant verdicts are permutation-invariant, and the successor relation
// commutes with Permute (spectest.AssertNextEquivariant).
type Symmetric interface {
	NumNodes() int
	// Permute returns s with node identities permuted by perm (perm[i] is
	// the new identity of node i).
	Permute(s State, perm []int) State
}

// OrbitHasher is the canonical fingerprint under symmetry. Every in-tree
// family implements it as one call to OrbitMin on its Orbit state, which
// hashes the node-id-free sub-digests once and derives each permutation's
// fingerprint by recombining them. The contract is exact equality with
//
//	min over all perms of Permute(s, perm).Fingerprint()
//
// with reduced == (min != s.Fingerprint()). scratch is caller-owned reusable
// memory (the explorer keeps one per expansion worker); implementations must
// not retain it.
type OrbitHasher interface {
	Symmetric
	OrbitFingerprint(s State, perms *PermTable, scratch *fp.OrbitScratch) (min uint64, reduced bool)
}

// FastSymmetric is not part of Machine and nothing in the product calls it:
// PermutedFingerprint(s, perm) == Permute(s, perm).Fingerprint() without
// materialising the state. The function PermutedFingerprint is the same for
// any Orbit state; the interface stays only because benchmark/probe names
// it, and raftbase alone implements it.
type FastSymmetric interface {
	Symmetric
	PermutedFingerprint(s State, perm []int) uint64
}

// ActionLister declares the full action vocabulary of the specification:
// every name that can appear as trace.Event.Action under the machine's
// configuration and budget, and at least one. The coverage profiler
// (obs.Cover) diffs fired actions against it to flag actions that never
// fired, and the cluster wire format indexes into it. The list should be
// conditioned on the instance (budgets, feature switches): declaring an
// action the configuration makes impossible produces a false "never fired"
// flag.
type ActionLister interface {
	// Actions returns the declared action names in a stable order.
	Actions() []string
}

// StateCodec round-trips states through a compact binary encoding — what the
// explorer's frontier spill, its checkpoints, and the exchange between
// cluster peers move. (VarsOf is for humans, not round-trips.) The contract
// is
//
//	DecodeState(AppendState(nil, s)).Fingerprint() == s.Fingerprint()
//
// and the decoded state must be behaviourally identical to the original
// (same successors, same invariant verdicts). The encoding is private to the
// machine and carries no versioning of its own: checkpoints persist it
// inside a versioned envelope bound to the machine's identity, and a resume
// re-fingerprints every decoded state against the value recorded beside it.
// DecodeState sees bytes from disk and from peers, so it must reject
// malformed input with an error, never a panic (see Decoder).
type StateCodec interface {
	// AppendState appends s's encoding to dst and returns the extended
	// slice (append-style, so callers can batch many states into one
	// buffer without per-state allocations).
	AppendState(dst []byte, s State) []byte
	// DecodeState decodes one state from the front of src, returning the
	// state and the remaining bytes.
	DecodeState(src []byte) (State, []byte, error)
}

// Config instantiates a model: the node count and the workload values that
// client requests write (the paper's "system configurations" in §3.3).
type Config struct {
	Name     string
	Nodes    int
	Workload []string
}

// DefaultConfig is the 3-node, two-workload-value configuration used in most
// of the paper's experiments.
func DefaultConfig() Config {
	return Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
}

// Budget bounds the explored state space (the paper's "budget constraints"):
// maximum counts of timeouts, crashes/restarts, client requests, partitions,
// UDP drops/duplications, in-flight messages per channel, and exploration
// depth. A zero MaxDepth means unbounded depth.
type Budget struct {
	Name           string
	MaxTimeouts    int
	MaxCrashes     int
	MaxRestarts    int
	MaxRequests    int
	MaxPartitions  int
	MaxDrops       int
	MaxDuplicates  int
	MaxBuffer      int
	MaxCompactions int
	// MaxDirtyCrashes bounds crash-consistency faults (NodeCrashDirty):
	// crashes that lose or tear the node's unsynced writes instead of
	// preserving durable state atomically. Zero disables the fault model,
	// leaving the legacy atomic-durability crash semantics.
	MaxDirtyCrashes int
	MaxDepth        int
}

// Map renders the budget as the generic config map recorded in traces.
func (b Budget) Map() map[string]int {
	return map[string]int{
		"MaxTimeouts":     b.MaxTimeouts,
		"MaxCrashes":      b.MaxCrashes,
		"MaxRestarts":     b.MaxRestarts,
		"MaxRequests":     b.MaxRequests,
		"MaxPartitions":   b.MaxPartitions,
		"MaxDrops":        b.MaxDrops,
		"MaxDuplicates":   b.MaxDuplicates,
		"MaxBuffer":       b.MaxBuffer,
		"MaxCompactions":  b.MaxCompactions,
		"MaxDirtyCrashes": b.MaxDirtyCrashes,
		"MaxDepth":        b.MaxDepth,
	}
}

// Double returns the budget with every bound doubled — Table 3's
// experiment #2 doubles each constraint value of experiment #1.
func (b Budget) Double() Budget {
	d := b
	d.Name = b.Name + "x2"
	d.MaxTimeouts *= 2
	d.MaxCrashes *= 2
	d.MaxRestarts *= 2
	d.MaxRequests *= 2
	d.MaxPartitions *= 2
	d.MaxDrops *= 2
	d.MaxDuplicates *= 2
	d.MaxBuffer *= 2
	d.MaxCompactions *= 2
	d.MaxDirtyCrashes *= 2
	if b.MaxDepth > 0 {
		d.MaxDepth = b.MaxDepth * 2
	}
	return d
}

// Counters tracks how much of each budget a state has consumed. Specs embed
// Counters in their state structs; actions bump the relevant counter and
// refuse to enumerate once the budget is exhausted. Every live state carries
// one, so the fields are as narrow as needs no overflow story: a counter
// moves by one per transition and stops at its budget, and Decode rejects an
// encoding that does not fit.
type Counters struct {
	Timeouts    int32
	Crashes     int32
	Restarts    int32
	Requests    int32
	Partitions  int32
	Drops       int32
	Duplicates  int32
	Compactions int32
	// DirtyCrashes counts crash-consistency faults taken (NodeCrashDirty).
	DirtyCrashes int32
}

// Hash mixes the counters into a state fingerprint.
func (c *Counters) Hash(h *fp.Hasher) {
	h.Sep()
	h.WriteInt(int(c.Timeouts))
	h.WriteInt(int(c.Crashes))
	h.WriteInt(int(c.Restarts))
	h.WriteInt(int(c.Requests))
	h.WriteInt(int(c.Partitions))
	h.WriteInt(int(c.Drops))
	h.WriteInt(int(c.Duplicates))
	h.WriteInt(int(c.Compactions))
	h.WriteInt(int(c.DirtyCrashes))
}

// String renders the counters, the "counters" variable of a state:
// "timeouts=T crashes=C restarts=R requests=Q partitions=P drops=D dups=U dirty=Y".
func (c *Counters) String() string {
	var buf [96]byte
	b := buf[:0]
	for _, f := range [...]struct {
		label string
		v     int32
	}{
		{"timeouts=", c.Timeouts}, {" crashes=", c.Crashes}, {" restarts=", c.Restarts},
		{" requests=", c.Requests}, {" partitions=", c.Partitions}, {" drops=", c.Drops},
		{" dups=", c.Duplicates}, {" dirty=", c.DirtyCrashes},
	} {
		b = append(b, f.label...)
		b = strconv.AppendInt(b, int64(f.v), 10)
	}
	return string(b)
}

// CanTimeout reports whether another timeout fits the budget.
func (c *Counters) CanTimeout(b Budget) bool { return int(c.Timeouts) < b.MaxTimeouts }

// CanCrash reports whether another crash fits the budget.
func (c *Counters) CanCrash(b Budget) bool { return int(c.Crashes) < b.MaxCrashes }

// CanRestart reports whether another restart fits the budget.
func (c *Counters) CanRestart(b Budget) bool { return int(c.Restarts) < b.MaxRestarts }

// CanRequest reports whether another client request fits the budget.
func (c *Counters) CanRequest(b Budget) bool { return int(c.Requests) < b.MaxRequests }

// CanPartition reports whether another partition fits the budget.
func (c *Counters) CanPartition(b Budget) bool { return int(c.Partitions) < b.MaxPartitions }

// CanDrop reports whether another message drop fits the budget.
func (c *Counters) CanDrop(b Budget) bool { return int(c.Drops) < b.MaxDrops }

// CanDuplicate reports whether another message duplication fits the budget.
func (c *Counters) CanDuplicate(b Budget) bool { return int(c.Duplicates) < b.MaxDuplicates }

// CanCompact reports whether another log compaction fits the budget.
func (c *Counters) CanCompact(b Budget) bool { return int(c.Compactions) < b.MaxCompactions }

// CanDirtyCrash reports whether another crash-consistency fault fits the
// budget (dirty crashes also consume the ordinary crash budget, so a spec
// should check both).
func (c *Counters) CanDirtyCrash(b Budget) bool { return int(c.DirtyCrashes) < b.MaxDirtyCrashes }

// Violation is the standard auxiliary variable specs use to flag
// action-property violations (e.g. "match index is not monotonic", which is
// a property of a transition rather than of a single state). Actions set the
// flag when the property is broken; the ViolationInvariant then reports it.
type Violation struct {
	Flag string
}

// Set records a violation description (first one wins).
func (v *Violation) Set(format string, args ...any) {
	if v.Flag == "" {
		v.Flag = fmt.Sprintf(format, args...)
	}
}

// Hash mixes the violation flag into a fingerprint.
func (v *Violation) Hash(h *fp.Hasher) {
	h.Sep()
	h.WriteString(v.Flag)
}

// ViolationInvariant returns the invariant that fails whenever a state
// carries a flagged action-property violation.
func ViolationInvariant(get func(State) string) Invariant {
	return Invariant{
		Name: "NoFlaggedViolation",
		Check: func(s State) error {
			if f := get(s); f != "" {
				return fmt.Errorf("%s", f)
			}
			return nil
		},
	}
}

// PermTable is the precomputed permutation table for one arity: every
// permutation of 0..n-1 plus the derived views the canonicalization hot
// path needs (identity dropped, inverses paired). Tables come from
// PermTableFor and are shared across callers — treat every slice as
// read-only.
type PermTable struct {
	// N is the arity.
	N int
	// All lists every permutation; All[0] is the identity.
	All [][]int
	// Identity is All[0] (perm[i] == i).
	Identity []int
	// NonIdentity is All[1:]: the permutations the min-of-orbit loop
	// actually has to try once the plain fingerprint seeds the minimum.
	NonIdentity [][]int
	// NonIdentityInv holds the inverse of each NonIdentity permutation,
	// index-aligned (inv[perm[i]] == i) — combiners read "which original
	// node fills slot j" without re-deriving it per state.
	NonIdentityInv [][]int
}

// PermTableMax is the largest arity symmetry reduction supports: a table
// holds n! permutations (8! = 40,320; 12! would be 479,001,600), so the
// explorer refuses symmetry over more nodes. Tables up to it are cached;
// beyond it they are built on demand.
const PermTableMax = 8

var permTables [PermTableMax + 1]struct {
	once sync.Once
	tab  *PermTable
}

// PermTableFor returns the (cached, shared, read-only) permutation table
// for arity n. The first call per arity builds the table; subsequent calls
// are a pointer load — call sites no longer regenerate the factorial table
// per run.
func PermTableFor(n int) *PermTable {
	if n < 0 || n > PermTableMax {
		return buildPermTable(n)
	}
	e := &permTables[n]
	e.once.Do(func() { e.tab = buildPermTable(n) })
	return e.tab
}

var identity = func() (id [MaxNodes]int) {
	for i := range id {
		id[i] = i
	}
	return id
}()

// IdentityPerm returns the identity permutation of n ≤ MaxNodes nodes
// without building a table, so a fingerprint of any arity costs no n!
// permutations. The slice is shared: treat it as read-only.
func IdentityPerm(n int) []int { return identity[:n:n] }

func buildPermTable(n int) *PermTable {
	t := &PermTable{N: n, All: generatePermutations(n)}
	t.Identity = t.All[0]
	t.NonIdentity = t.All[1:]
	t.NonIdentityInv = make([][]int, len(t.NonIdentity))
	for k, p := range t.NonIdentity {
		inv := make([]int, n)
		for i, v := range p {
			inv[v] = i
		}
		t.NonIdentityInv[k] = inv
	}
	return t
}

// generatePermutations emits every permutation of 0..n-1 by recursive
// position swaps; the first emitted permutation is the identity (the swap
// at each level starts with the no-op), which PermTable relies on.
func generatePermutations(n int) [][]int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]int, n)
			copy(p, ids)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			ids[k], ids[i] = ids[i], ids[k]
			rec(k + 1)
			ids[k], ids[i] = ids[i], ids[k]
		}
	}
	rec(0)
	return out
}
