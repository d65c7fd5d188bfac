// Package vos is the virtual operating-system layer that substitutes for
// SandTable's LD_PRELOAD interposition (§A.1 of the paper).
//
// The paper's interceptor overrides ~20 POSIX APIs inside the target
// process to control every source of nondeterminism: the clock
// (clock_gettime/gettimeofday), the network (send/recv and friends), and
// randomness. Our target systems are Go implementations written against the
// Env interface below, which exposes exactly that controlled surface. The
// deterministic execution engine (internal/engine) owns the Env and fires
// all events, so an execution is a pure function of the command sequence.
package vos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Clock is a per-node virtual clock. Reads advance it by one nanosecond so
// time stays strictly monotonic (the paper's "small predefined increment");
// the engine advances it in larger steps to trigger timeouts without
// waiting for wall-clock time.
type Clock struct {
	now time.Time
}

// NewClock starts the clock at a fixed epoch so executions are reproducible.
func NewClock() *Clock {
	return &Clock{now: time.Unix(1700000000, 0)}
}

// Now returns the current virtual time, bumping it by 1ns.
func (c *Clock) Now() time.Time {
	c.now = c.now.Add(time.Nanosecond)
	return c.now
}

// Peek returns the current virtual time without advancing it.
func (c *Clock) Peek() time.Time { return c.now }

// Advance moves the clock forward by d (engine "advance time" command).
func (c *Clock) Advance(d time.Duration) {
	c.now = c.now.Add(d)
}

// CrashMode selects what happens to a store's unsynced write journal when
// its node crashes. The paper's interposition layer (§A.1) intercepts
// write/fsync precisely so the checker can explore these outcomes; the
// engine picks the mode (and, for torn crashes, the cut point)
// deterministically from its seed.
type CrashMode string

const (
	// CrashClean flushes everything before the crash: no writes are lost.
	// This is the legacy atomic-durability model.
	CrashClean CrashMode = "clean"
	// CrashLoseUnsynced discards the entire unsynced journal: only data
	// that was explicitly Sync()ed survives (fsync-less writes vanish).
	CrashLoseUnsynced CrashMode = "lose-unsynced"
	// CrashTorn persists a prefix of the unsynced journal and discards the
	// rest, modelling a torn multi-write batch interrupted mid-flush.
	CrashTorn CrashMode = "torn-batch"
)

// writeOp is one buffered write awaiting a Sync.
type writeOp struct {
	key   string
	value []byte
}

// Store is a node's durable storage with explicit sync boundaries. It
// substitutes for the paper's write/fsync interposition (§A.1): Persist
// appends to an ordered in-memory journal (the OS page cache), and only
// Sync makes the journalled writes crash-durable. A store created with
// NewStore auto-syncs every write (the legacy atomic model); one created
// with NewBufferedStore keeps writes volatile until Sync, so a dirty crash
// can lose the unsynced tail or tear it at any write boundary.
type Store struct {
	mu       sync.Mutex
	durable  map[string][]byte
	journal  []writeOp
	buffered bool
}

// NewStore returns an empty store in which every Persist is immediately
// durable (auto-sync). Crash-consistency faults cannot lose its writes.
func NewStore() *Store { return &Store{durable: make(map[string][]byte)} }

// NewBufferedStore returns an empty store whose writes stay volatile until
// Sync. Use with the engine's Buffered config to explore dirty crashes.
func NewBufferedStore() *Store {
	return &Store{durable: make(map[string][]byte), buffered: true}
}

// Buffered reports whether writes require an explicit Sync to survive a
// dirty crash.
func (s *Store) Buffered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// Persist records value under key. On an auto-sync store the write is
// immediately durable; on a buffered store it joins the unsynced journal
// (read-your-writes visible via Load, but lost on a dirty crash).
func (s *Store) Persist(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := append([]byte(nil), value...)
	if !s.buffered {
		s.durable[key] = cp
		return
	}
	s.journal = append(s.journal, writeOp{key: key, value: cp})
}

// Sync flushes the journal: every buffered write becomes crash-durable, in
// order. The fsync of the fault model.
func (s *Store) Sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyJournalLocked(len(s.journal))
}

// applyJournalLocked makes the first n journalled writes durable and drops
// the remainder. Callers hold s.mu.
func (s *Store) applyJournalLocked(n int) {
	for _, op := range s.journal[:n] {
		s.durable[op.key] = op.value
	}
	s.journal = nil
}

// Unsynced reports the number of journalled writes that would be at risk in
// a dirty crash right now.
func (s *Store) Unsynced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.journal)
}

// Crash applies a crash outcome to the store. For CrashClean the journal is
// flushed (nothing lost); for CrashLoseUnsynced it is discarded entirely;
// for CrashTorn the first cut writes are flushed and the rest discarded
// (cut is clamped to the journal length — the engine draws it from its
// deterministic fault stream).
func (s *Store) Crash(mode CrashMode, cut int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch mode {
	case CrashLoseUnsynced:
		s.journal = nil
	case CrashTorn:
		if cut < 0 {
			cut = 0
		}
		if cut > len(s.journal) {
			cut = len(s.journal)
		}
		s.applyJournalLocked(cut)
	default: // CrashClean
		s.applyJournalLocked(len(s.journal))
	}
}

// Load reads the value for key, observing buffered writes (read-your-writes:
// a running process sees the page cache, not the platter).
func (s *Store) Load(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.journal) - 1; i >= 0; i-- {
		if s.journal[i].key == key {
			return append([]byte(nil), s.journal[i].value...), true
		}
	}
	v, ok := s.durable[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Wipe clears the store (used to reset a cluster between traces, NOT on
// crash — crashes preserve durable state).
func (s *Store) Wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable = make(map[string][]byte)
	s.journal = nil
}

// Len reports the number of visible keys (durable plus buffered).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.durable)
	seen := make(map[string]bool)
	for _, op := range s.journal {
		if _, ok := s.durable[op.key]; !ok && !seen[op.key] {
			seen[op.key] = true
			n++
		}
	}
	return n
}

// DumpDurable renders the crash-durable contents (journal excluded) as a
// canonical byte string: sorted keys, hex-encoded values, one per line.
// Two stores with identical durable state produce byte-identical dumps, so
// confirmation runs can compare persistence outcomes across seeds.
func (s *Store) DumpDurable() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.durable))
	for k := range s.durable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%x\n", k, s.durable[k])
	}
	return b.Bytes()
}

// WriteBatch groups writes that the caller intends as one logical update.
// Commit journals the writes in order as a unit, but durability is still
// governed by Sync — and a torn crash (CrashTorn) can cut the journal
// *inside* the batch, persisting only a prefix of it. That is exactly the
// torn-write outcome the fault model explores.
type WriteBatch struct {
	s   *Store
	ops []writeOp
}

// Batch starts a new write batch against the store.
func (s *Store) Batch() *WriteBatch { return &WriteBatch{s: s} }

// Put adds one write to the batch.
func (b *WriteBatch) Put(key string, value []byte) {
	b.ops = append(b.ops, writeOp{key: key, value: append([]byte(nil), value...)})
}

// Len reports the number of writes staged in the batch.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Commit journals the batch's writes in order (auto-sync stores flush them
// immediately). The batch can be reused after Commit; its staged writes are
// cleared.
func (b *WriteBatch) Commit() {
	s := b.s
	s.mu.Lock()
	s.journal = append(s.journal, b.ops...)
	if !s.buffered {
		s.applyJournalLocked(len(s.journal))
	}
	s.mu.Unlock()
	b.ops = nil
}

// Env is the controlled syscall surface a node process runs against.
type Env interface {
	// ID is this node's identity (0-based), N the cluster size.
	ID() int
	N() int
	// Now reads the virtual clock (monotonic; engine-controlled).
	Now() time.Time
	// Send transmits a message to peer `to` through the network proxy.
	// Messages to disconnected peers are silently dropped, matching TCP
	// connection breakage under partition/crash.
	Send(to int, msg []byte)
	// Connected reports whether the connection to peer `to` is currently
	// established (a real process observes this as send errors or TCP
	// resets).
	Connected(to int) bool
	// Rand is a deterministic, per-node-seeded random source.
	Rand() *rand.Rand
	// Logf writes to the node's captured log (the engine parses logs to
	// observe state, mirroring the paper's logging-fd interception, §A.4).
	Logf(format string, args ...any)
	// Persist/Load access the durable store that survives crashes.
	Persist(key string, value []byte)
	Load(key string) ([]byte, bool)
	// Sync flushes buffered Persist writes to crash-durable storage (the
	// fsync of the fault model, §A.1). A no-op under the legacy auto-sync
	// store; under a buffered store, writes not yet synced are at risk in
	// a dirty crash.
	Sync()
}

// Process is a node implementation runnable under the engine. All methods
// are invoked by the engine only — never concurrently — which is exactly the
// determinism the paper's interposition enforces on real processes.
type Process interface {
	// Start initialises the node. Called on cluster boot and on restart
	// after a crash (in which case Load reveals the pre-crash durable
	// state).
	Start(env Env)
	// Receive handles one delivered message.
	Receive(from int, msg []byte)
	// Tick is called after the engine advances the virtual clock; the
	// process checks its deadlines and fires any timers that became due.
	Tick()
	// ClientRequest submits one client operation (write value, etc.).
	ClientRequest(payload string)
	// Fields names the state variables Observe renders, in the order it
	// writes them: the same list for every node of a system and every call
	// (the engine reads it once per cluster).
	Fields() []string
	// Observe renders the node's state variables for conformance checking
	// (the paper's "query the system's APIs" observation path): dst[f] is
	// Fields()[f]. The engine hands dst in with every slot trace.Absent, so a
	// variable the node does not hold at the moment is left as it is.
	Observe(dst []string)
}

// LogBuffer captures a node's log output for the log-parsing observation
// path.
type LogBuffer struct {
	mu    sync.Mutex
	lines []string
}

// Append adds a formatted line.
func (l *LogBuffer) Append(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// Lines returns a copy of all captured lines.
func (l *LogBuffer) Lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// Reset clears the buffer.
func (l *LogBuffer) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = nil
}
