// Package explorer implements SandTable's specification-level state
// exploration (§3.3): a stateful breadth-first model checker with
// fingerprint-based state deduplication, optional symmetry reduction, and a
// TLC-style simulation mode (seeded random walks) used for conformance
// checking and constraint ranking.
//
// The BFS checker is stateful — it remembers every visited state in a
// concurrent fingerprint set (internal/fpset, the analogue of TLC's
// fingerprint set) and therefore never re-explores a state — which is the
// property that makes specification-level exploration orders of magnitude
// faster than stateless implementation-level exploration. Counterexamples
// found by BFS have minimal depth.
//
// Expansion runs on a persistent worker pool: Options.Workers goroutines
// are started once per Run, and each block of the frontier is fed to them
// as dynamically sized sub-chunks claimed off an atomic cursor, so load
// balances even when successor counts vary wildly across states. Workers
// probe-and-insert into the sharded fingerprint set concurrently; there is
// no serial deduplication barrier. Results remain deterministic regardless
// of worker count and scheduling: the set breaks equal-depth parent ties by
// smallest parent fingerprint, each BFS level is sorted by fingerprint
// before the next level is expanded, and violations are reported in
// (depth, fingerprint) order.
//
// Long runs can snapshot their fingerprint set and frontier to disk and be
// resumed after an interruption; see CheckpointOptions. Single-process and
// distributed runs share one checkpoint format and one commit protocol
// (checkpoint.go).
package explorer

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Options configures a model-checking run.
type Options struct {
	// Workers is the number of parallel expansion workers (level-synchronous
	// BFS). Zero means runtime.NumCPU().
	Workers int
	// Symmetry enables symmetry reduction: states are identified up to node
	// permutation (a no-op on a machine with NumNodes() <= 1). Over more than
	// spec.PermTableMax nodes the run stops with "config-error".
	Symmetry bool
	// MaxDepth bounds the BFS depth (0 = unbounded; budgets inside the spec
	// usually bound the space already).
	MaxDepth int
	// MaxStates stops the search after this many distinct states (0 = off).
	// The bound is checked at block boundaries, so a run may overshoot by
	// up to one block.
	MaxStates int
	// Deadline stops the search after this wall-clock duration (0 = off).
	// On a resumed run the deadline budgets the current session, not the
	// cumulative run.
	Deadline time.Duration
	// Context, when non-nil, cancels the run cooperatively: cancellation is
	// observed at expansion block boundaries (the same safepoints as
	// MaxStates and Deadline) and ends the run with StopReason "canceled".
	// A level cut short by cancellation is never snapshotted, so the last
	// complete-level checkpoint stays valid and the run remains resumable.
	// In a distributed (Peer) run the safepoint is the level barrier: each
	// peer reports its context's state in the resolve summary, so canceling
	// any one peer stops every peer at the same level.
	Context context.Context
	// StopAtFirstViolation halts at the first invariant violation (the
	// default SandTable workflow: confirm one bug, fix, re-run). The stop is
	// level-granular: the level that found the violation completes before
	// the run ends, so the reported counters cover whole levels and are
	// identical at every worker count and cluster size. When false the
	// checker records every violating state but keeps exploring.
	StopAtFirstViolation bool
	// RecordVars includes rendered variable maps in counterexample traces
	// (needed for conformance checking and replay; costs time).
	RecordVars bool

	// MemBudget, when > 0, caps the estimated resident footprint (bytes) of
	// the exploration's two big structures. Over budget, the fingerprint
	// set spills frozen entries to sorted disk runs and the BFS frontier
	// spills codec-encoded states to disk runs.
	// Results are identical to an unbudgeted run — see frontier.go and
	// fpset/spill.go for the determinism argument. The CLI exposes this as
	// -mem-budget and defaults it from GOMEMLIMIT.
	MemBudget int64
	// SpillDir is where spill files live; a fresh private subdirectory is
	// created per run and removed when the run ends. Empty falls back to
	// the checkpoint dir, then the OS temp dir.
	SpillDir string

	// Checkpoint configures periodic exploration snapshots and resume; the
	// zero value disables both. See CheckpointOptions.
	Checkpoint CheckpointOptions

	// Peer, when non-nil, runs this checker as one peer of a distributed
	// exploration: the fingerprint space is partitioned across
	// Peer.Conn.Peers() processes by transport.Owner, and peers exchange
	// candidate successors at level barriers. Incompatible with MemBudget.
	// See cluster.go for the determinism argument.
	Peer *PeerOptions

	// Progress, when set, receives TLC-style periodic progress snapshots
	// during the run (distinct states, frontier size, throughput), every
	// ProgressInterval (default 5s). Checked only at block boundaries
	// (~16k states), so the callback never sits on the hot path.
	Progress obs.ProgressFunc
	// ProgressInterval is the minimum wall-clock time between reports.
	ProgressInterval time.Duration
	// Metrics, when set, receives live counters during the run (keys:
	// distinct_states, transitions, dedup_hits, queue_len, max_queue_len,
	// depth, plus the fpset.* fingerprint-set gauges) so an expvar/pprof
	// endpoint can watch a run in flight.
	Metrics *obs.Registry
	// Tracer, when set, receives one "level" event per completed BFS level
	// — a structured record of how the exploration advanced — and one
	// "checkpoint" event per snapshot written. The progress reporter also
	// emits a "stall" event (layer "obs") when a run plateaus; see
	// obs.Reporter.
	Tracer *obs.Tracer
	// Cover enables the state-space coverage profiler: per-action fire and
	// fresh-state counts, per-level frontier/dedup profiles, and symmetry-
	// reduction hits, published as Result.Cover. Collection is two-phase —
	// each expansion worker accumulates privately and the totals are folded
	// in at block barriers — so the hot path takes no locks and no atomics.
	Cover bool
}

// DefaultOptions returns the options used by the SandTable workflow.
func DefaultOptions() Options {
	return Options{Symmetry: true, StopAtFirstViolation: true, RecordVars: true}
}

// Violation describes one invariant violation found during checking.
type Violation struct {
	Invariant string
	Err       error
	Depth     int
	Trace     *trace.Trace

	fp uint64 // fingerprint of the violating state
}

// String renders the violation as a one-line human-readable summary.
func (v *Violation) String() string {
	return fmt.Sprintf("invariant %s violated at depth %d: %v", v.Invariant, v.Depth, v.Err)
}

// Result summarises a model-checking run.
type Result struct {
	DistinctStates int
	Transitions    int64
	// DedupHits counts successors discarded because their canonical
	// fingerprint was already in the visited set — the work the stateful
	// discipline saves over stateless search (§2.1).
	DedupHits int64
	// MaxQueueLen is the BFS frontier high-water mark (states awaiting
	// expansion plus states discovered for the next level), the run's peak
	// memory driver.
	MaxQueueLen int
	MaxDepth    int
	// Duration is the cumulative exploration wall-clock time; for a
	// resumed run it includes the elapsed time recorded in the snapshot.
	Duration   time.Duration
	Violations []*Violation
	// Exhausted is true when the bounded state space was fully explored.
	Exhausted bool
	// StopReason explains why the run ended ("exhausted", "violation",
	// "max-states", "deadline", "max-depth", "canceled" — Options.Context
	// was canceled — "checkpoint-error", "config-error" — the options
	// contradict each other — "spill-error" — a disk failure
	// reading back a spilled frontier; distributed runs add
	// "transport-error").
	StopReason string
	// Resumed reports whether the run continued from a snapshot.
	Resumed bool
	// Checkpoints counts the snapshots written during the run.
	Checkpoints int
	// Cover is the coverage profile collected during the run (nil unless
	// Options.Cover): which actions fired, which never did, how each BFS
	// level spent its work.
	Cover *obs.Cover
	// Err carries the fatal error behind a "checkpoint-error" (a failed
	// resume — missing, corrupt, or incompatible snapshot), "config-error",
	// "spill-error" or "transport-error" stop. For the first two the other
	// fields are zero.
	Err error
}

// StatesPerSecond reports the exploration throughput.
func (r *Result) StatesPerSecond() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.DistinctStates) / r.Duration.Seconds()
}

// DedupRatio is the fraction of generated successors that were duplicates.
func (r *Result) DedupRatio() float64 {
	if r.Transitions == 0 {
		return 0
	}
	return float64(r.DedupHits) / float64(r.Transitions)
}

// Summary renders the result as a flat map echoing the metrics-registry key
// names — the vocabulary shared by the CLI's -metrics-out artifact, the
// serve API's result.json, and the clustercmp signature comparison.
func (r *Result) Summary() map[string]any {
	out := map[string]any{
		"distinct_states": r.DistinctStates,
		"transitions":     r.Transitions,
		"dedup_hits":      r.DedupHits,
		"max_queue_len":   r.MaxQueueLen,
		"max_depth":       r.MaxDepth,
		"duration_ns":     r.Duration.Nanoseconds(),
		"states_per_sec":  r.StatesPerSecond(),
		"dedup_ratio":     r.DedupRatio(),
		"stop_reason":     r.StopReason,
		"exhausted":       r.Exhausted,
		"violations":      len(r.Violations),
		"resumed":         r.Resumed,
		"checkpoints":     r.Checkpoints,
	}
	if v := r.FirstViolation(); v != nil {
		out["first_violation"] = v.String()
	}
	return out
}

// FirstViolation returns the minimal-depth violation, or nil. Among
// equal-depth violations the one with the smallest state fingerprint is
// first — a deterministic choice independent of worker scheduling.
func (r *Result) FirstViolation() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// Checker runs stateful BFS over a specification. A Checker is single-use:
// build a fresh one per run.
type Checker struct {
	m    spec.Machine
	opts Options

	// ptab is the permutation table canonicalization ranges over; nil when
	// there is nothing to permute (Symmetry off, or at most one node).
	ptab *spec.PermTable
	// osc is the serial-path orbit scratch (init seeding, resume
	// verification, trace reconstruction); expansion workers carry their own.
	osc fp.OrbitScratch
	// canonOrbit counts orbit canonicalizations. Published as the
	// explorer.canonical.orbit metric only — deliberately NOT part of Result.
	canonOrbit int64

	visited *fpset.Set

	// cover is the run's coverage profile (nil unless Options.Cover);
	// workers feed it through per-worker accumulators merged at block
	// barriers, never directly.
	cover *obs.Cover

	// ident is the run identity checkpoints and peers are matched against;
	// set by Run when either is in play.
	ident runIdentity

	// cluster is the distributed-run context (nil for single-process runs);
	// see cluster.go.
	cluster *clusterCtx
	// ck is the run's checkpointer (set by Run; see checkpoint.go).
	ck *checkpointer
}

// NewChecker builds a checker for machine m.
func NewChecker(m spec.Machine, opts Options) *Checker {
	c := &Checker{m: m, opts: opts, visited: fpset.New(0)}
	if n := m.NumNodes(); opts.Symmetry && n > 1 && n <= spec.PermTableMax {
		c.ptab = spec.PermTableFor(n)
	}
	return c
}

// canonicalFP returns the symmetry-reduced fingerprint of s: the minimum
// fingerprint over all node permutations (with symmetry off it is the plain
// fingerprint). Serial-path wrapper over canonicalFPScratch using the
// checker's own scratch; concurrent callers (expansion workers) must pass
// their own.
func (c *Checker) canonicalFP(s spec.State) uint64 {
	fp, _ := c.canonicalFPScratch(s, &c.osc)
	return fp
}

// canonicalFPScratch computes the canonical fingerprint with caller-owned
// orbit scratch (one digest pass + cheap combines, no allocations). The bool
// reports whether a non-identity permutation produced the minimum, i.e.
// whether symmetry reduction collapsed this state onto a representative (the
// coverage profiler's symmetry-hit signal).
func (c *Checker) canonicalFPScratch(s spec.State, sc *fp.OrbitScratch) (uint64, bool) {
	if c.ptab == nil {
		return s.Fingerprint(), false
	}
	return c.m.OrbitFingerprint(s, c.ptab, sc)
}

// countCanon counts n orbit canonicalizations (no-op with symmetry off —
// canonicalization is then a plain fingerprint). Called at block barriers
// and on serial paths, never per-successor.
func (c *Checker) countCanon(n int64) {
	if c.ptab != nil {
		c.canonOrbit += n
	}
}

type frontierEntry struct {
	state spec.State
	fp    uint64
}

// runMetrics holds the registry handles resolved once per run; updates are
// lock-free atomic stores performed at block granularity, never per state.
type runMetrics struct {
	distinct, transitions, dedup, queueLen, maxQueueLen, depth *obs.Gauge
	fpsetEntries, fpsetSlots, fpsetProbes, fpsetResizes        *obs.Gauge
	// canonOrbit is the orbit canonicalization count (zero with symmetry off).
	canonOrbit *obs.Gauge
	// Memory-pressure gauges/counters (see memory.go): fpset spill state,
	// frontier spill volume, heap-in-use, and the configured budget.
	fpsetSpilledEntries, fpsetSpilledShards, fpsetSpillRuns *obs.Gauge
	fpsetSpillBytes, fpsetDiskProbes                        *obs.Gauge
	heapInuse, memBudget                                    *obs.Gauge
	frontierSpillBytes, frontierSpilledEntries              *obs.Counter
	// Checkpoint-chain counters (see delta.go): checkpoints counts every
	// committed one; the blocks after a log's first (deltas), their bytes,
	// and the new logs compaction starts are counted separately.
	checkpoints, ckDeltas, ckDeltaBytes, ckCompactions, ckErrors *obs.Counter
}

func newRunMetrics(reg *obs.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	return &runMetrics{
		distinct:               reg.Gauge("distinct_states"),
		transitions:            reg.Gauge("transitions"),
		dedup:                  reg.Gauge("dedup_hits"),
		queueLen:               reg.Gauge("queue_len"),
		maxQueueLen:            reg.Gauge("max_queue_len"),
		depth:                  reg.Gauge("depth"),
		canonOrbit:             reg.Gauge("explorer.canonical.orbit"),
		fpsetEntries:           reg.Gauge("fpset.entries"),
		fpsetSlots:             reg.Gauge("fpset.slots"),
		fpsetProbes:            reg.Gauge("fpset.probes"),
		fpsetResizes:           reg.Gauge("fpset.resizes"),
		fpsetSpilledEntries:    reg.Gauge("fpset.spilled_entries"),
		fpsetSpilledShards:     reg.Gauge("fpset.spilled_shards"),
		fpsetSpillRuns:         reg.Gauge("fpset.spill_runs"),
		fpsetSpillBytes:        reg.Gauge("fpset.spill_bytes"),
		fpsetDiskProbes:        reg.Gauge("fpset.disk_probes"),
		heapInuse:              reg.Gauge("heap_inuse_bytes"),
		memBudget:              reg.Gauge("mem_budget_bytes"),
		frontierSpillBytes:     reg.Counter("explorer.frontier_spill_bytes"),
		frontierSpilledEntries: reg.Counter("explorer.frontier_spilled_entries"),
		checkpoints:            reg.Counter("checkpoints"),
		ckDeltas:               reg.Counter("checkpoint.deltas"),
		ckDeltaBytes:           reg.Counter("checkpoint.delta_bytes"),
		ckCompactions:          reg.Counter("checkpoint.compactions"),
		ckErrors:               reg.Counter("checkpoint.errors"),
	}
}

func (m *runMetrics) publish(c *Checker, res *Result, queueLen, depth int, set *fpset.Set) {
	if m == nil {
		return
	}
	m.canonOrbit.Set(c.canonOrbit)
	m.distinct.Set(int64(res.DistinctStates))
	m.transitions.Set(res.Transitions)
	m.dedup.Set(res.DedupHits)
	m.queueLen.Set(int64(queueLen))
	m.maxQueueLen.Set(int64(res.MaxQueueLen))
	m.depth.Set(int64(depth))
	st := set.Stats()
	m.fpsetEntries.Set(st.Entries)
	m.fpsetSlots.Set(st.Slots)
	m.fpsetProbes.Set(st.Probes)
	m.fpsetResizes.Set(st.Resizes)
	m.fpsetSpilledEntries.Set(st.SpilledEntries)
	m.fpsetSpilledShards.Set(st.SpilledShards)
	m.fpsetSpillRuns.Set(st.SpillRuns)
	m.fpsetSpillBytes.Set(st.SpillBytes)
	m.fpsetDiskProbes.Set(st.DiskProbes)
}

// newReporter builds the progress reporter for a run (nil Progress → a
// reporter whose calls no-op; with no interval configured obs.NewReporter
// picks its default). The run's tracer is attached so stall warnings land in
// the structured event stream as well as on the progress line.
func (o *Options) newReporter() *obs.Reporter {
	r := obs.NewReporter(o.Progress, o.ProgressInterval)
	r.Tracer = o.Tracer
	return r
}

// fatal is an error that ends the run under the named Result.StopReason.
type fatal struct {
	reason string
	err    error
}

// levelView is a level boundary as this process sees it (what goes into the
// resolve seam) or as the whole cluster does (what comes out). In a
// single-process run the two are the same value.
type levelView struct {
	distinct, frontier, violations int
	deadline, canceled             bool
	// ckErr is this peer's checkpoint failure going in, any peer's coming out;
	// chains is this peer's prepared chain position going in, every peer's
	// (by peer id) coming out — what a commit names.
	ckErr  string
	chains []chainPos
}

// Run performs the breadth-first search and returns the result. It is the
// only level loop: a distributed run goes through the same statements and
// meets the other peers at the four *clusterCtx seams (hello, seal, resolve,
// final — see cluster.go), each the identity on a nil receiver. A Conn also
// selects the dedup strategy: solo workers probe-and-insert as they expand,
// cluster workers buffer candidates that seal routes and merges serially.
func (c *Checker) Run() *Result {
	start := time.Now()
	res := &Result{}
	fail := func(f *fatal) *Result {
		res.Err, res.StopReason = f.err, f.reason
		return res
	}
	if p := c.opts.Peer; p != nil && p.Conn != nil {
		defer p.Conn.Close()
		if f := c.joinCluster(p.Conn, res); f != nil {
			return fail(f)
		}
	}
	if n := c.m.NumNodes(); c.opts.Symmetry && n > spec.PermTableMax {
		return fail(&fatal{"config-error", fmt.Errorf("symmetry over %d nodes: at most %d are supported (canonicalization ranges over all n! node permutations)", n, spec.PermTableMax)})
	}
	cl := c.cluster
	// A solo run's own counters are the whole truth, so it may act on them
	// between barriers (mid-level stops, skipping a snapshot when it is about
	// to end); a peer's are a share, and it acts only on resolved globals.
	solo := cl == nil

	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	reporter := c.opts.newReporter()
	metrics := newRunMetrics(c.opts.Metrics)
	invs := c.m.Invariants()

	if c.opts.Cover {
		res.Cover = obs.NewCover("bfs", c.m.Actions())
		c.cover = res.Cover
	}

	if o := c.opts.Checkpoint; !solo || o.Dir != "" || o.Resume {
		c.ident = c.identity()
	}
	ck := c.newCheckpointer(reporter, metrics)
	c.ck = ck
	// A resume starts on the coordinator, which reads the committed manifest;
	// hello hands every peer its copy, and each loads its own chain from it.
	man, f := cl.hello(c.resumeManifest())
	if f != nil {
		return fail(f)
	}
	var hdr *blockHeader
	var frontier []frontierEntry
	if man != nil {
		var err error
		if hdr, frontier, err = ck.load(c, man); err != nil {
			return fail(&fatal{"checkpoint-error", fmt.Errorf("resume: %w", err)})
		}
	}

	depth := 0
	var restoredElapsed time.Duration
	// own is every violation found by this process, in (depth, fp) order: all
	// of them in a solo run, this peer's share in a cluster.
	var own []*Violation
	if hdr != nil {
		// Counters, depth and the verified frontier replace init seeding.
		hdr.restoreInto(res, c.cover)
		for _, v := range hdr.Violations {
			own = append(own, v.violation())
		}
		restoredElapsed = time.Duration(hdr.ElapsedNs)
		depth = hdr.Depth
	} else {
		// Every peer canonicalises every initial state (they are few) and
		// keeps the ones it owns; a duplicate is a dedup hit at its owner, so
		// the cluster-wide sum matches a single-process run.
		seen := make(map[uint64]bool)
		for _, s := range c.m.Init() {
			fp := c.canonicalFP(s)
			c.countCanon(1)
			dup := seen[fp]
			seen[fp] = true
			if !cl.owns(fp) {
				continue
			}
			if dup {
				res.DedupHits++
				continue
			}
			c.visited.Insert(fp, fp, 0)
			frontier = append(frontier, frontierEntry{state: s, fp: fp})
			if v := checkInvariants(invs, s, 0, fp); v != nil {
				own = append(own, v)
			}
		}
		sortFrontier(frontier)
		res.DistinctStates = len(frontier)
		res.MaxQueueLen = len(frontier)
		if c.cover != nil {
			// Level 0 is the deduplicated initial states: no actions fire,
			// so the entry records only the level's size.
			c.cover.Levels = append(c.cover.Levels, obs.LevelStats{
				Depth: 0, Frontier: len(frontier), Fresh: len(frontier),
			})
		}
	}
	lf := newMemFrontier(frontier)
	frontier = nil

	deadline := time.Time{}
	if c.opts.Deadline > 0 {
		deadline = start.Add(c.opts.Deadline)
	}
	view := func(ckErr string, chains []chainPos) levelView {
		return levelView{
			distinct: res.DistinctStates, frontier: lf.size(), violations: len(own),
			deadline: !deadline.IsZero() && time.Now().After(deadline),
			canceled: c.canceled(), ckErr: ckErr, chains: chains,
		}
	}
	// The depth-0 resolve puts fresh and resumed runs, solo and clustered, on
	// the same footing: g is the global view every stop decision reads.
	g, f := cl.resolve(depth, own, view("", nil))
	if f != nil {
		return fail(f)
	}

	// The pool's goroutines live for the whole run; blocks are fed to them,
	// not spawned onto fresh goroutines.
	pool := c.newExpandPool(workers, invs)
	defer pool.close()

	// The memory controller (nil without a budget) owns the run's spill
	// directory; closed after trace reconstruction, which may still probe
	// spilled fingerprints.
	memctl, err := c.newMemController(metrics, reporter)
	if err != nil {
		return fail(&fatal{"spill-error", fmt.Errorf("mem-budget: %w", err)})
	}
	defer memctl.close(c.visited)

	// spare recycles the previous level's in-RAM backing as the next
	// level's accumulation buffer (double buffering): after warm-up, level
	// turnover allocates nothing. blockBuf is the one block the cursor
	// hands to the workers at a time.
	var spare []frontierEntry
	const block = 1 << 14
	blockBuf := make([]frontierEntry, 0, block)

	stop := ""
	for g.frontier > 0 {
		res.MaxDepth = depth // the deepest level with a non-empty global frontier
		// The stop ladder reads the resolved globals, so every peer takes the
		// same branch at the same level.
		if g.canceled {
			stop = "canceled"
		} else if c.opts.StopAtFirstViolation && g.violations > 0 {
			stop = "violation"
		} else if c.opts.MaxDepth > 0 && depth >= c.opts.MaxDepth {
			stop = "max-depth"
		} else if c.opts.MaxStates > 0 && g.distinct >= c.opts.MaxStates {
			stop = "max-states"
		} else if g.deadline {
			stop = "deadline"
		}
		if stop != "" {
			break
		}

		depth++

		// Level baselines for the coverage profile: per-level deltas are
		// differences of run totals taken at the level boundaries.
		baseDistinct, baseTrans, baseDedup := res.DistinctStates, res.Transitions, res.DedupHits
		baseProbes := c.visited.Stats().Probes
		baseCk, expanded := res.Checkpoints, lf.size()

		// Expand the level in bounded blocks so memory holds at most one
		// block's successors at a time. Deduplication (solo) or candidate
		// buffering (cluster) happens inside the workers; the serial part of
		// a block is only folding their output and counters.
		next := spare[:0]
		var levelViolations []*Violation
		sink := memctl.newSink()
		consumed := 0
		stopLevel := false

		// processBlock expands one frontier block and does the boundary
		// bookkeeping: drain, spill checks, queue-length high-water,
		// metrics/progress publication, and the mid-level stop decisions.
		// Identical for in-RAM and disk-backed levels, so the stop
		// decisions cannot depend on where the frontier lives.
		processBlock := func(entries []frontierEntry) bool {
			pool.expand(entries, depth)
			// The block's states are fully expanded: release them so the
			// peak footprint is one level plus one block, not two levels.
			for k := range entries {
				entries[k].state = nil
			}
			pool.drainInto(res, &next, &levelViolations)
			consumed += len(entries)
			next = sink.maybeSpill(next)
			memctl.blockTick(c, depth)
			queueLen := (lf.size() - consumed) + sink.spilledCount() + len(next) + len(pool.cands)
			if queueLen > res.MaxQueueLen {
				res.MaxQueueLen = queueLen
			}
			metrics.publish(c, res, queueLen, depth, c.visited)
			reporter.Maybe(res.progress(queueLen, depth))
			// Block-granular stops for a solo run only; a cluster stops at
			// level granularity (a documented divergence for these reasons).
			if !solo {
				return false
			}
			if c.opts.MaxStates > 0 && res.DistinctStates >= c.opts.MaxStates {
				return true
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return true
			}
			return c.canceled()
		}

		// Read the level back in global fingerprint order, one block at a
		// time: the in-RAM tail merged with any sorted runs it spilled.
		var rerr error
		var cur *frontierCursor
		if cur, rerr = lf.cursor(c.m); rerr == nil {
			for {
				if blockBuf, rerr = cur.nextBlock(blockBuf[:0], block); rerr != nil || len(blockBuf) == 0 {
					break
				}
				if stopLevel = processBlock(blockBuf); stopLevel {
					break
				}
			}
			cur.close()
		}
		if rerr != nil {
			sortViolations(levelViolations)
			own = append(own, levelViolations...)
			res.Err = fmt.Errorf("frontier spill: %w", rerr)
			stop = "spill-error"
			lf.discard()
			break
		}
		partialLevel := stopLevel && consumed < lf.size()

		// Seal the level. The checkpoint cadence is read before the seam (the
		// coordinator's decision travels with the data barrier), against the
		// last resolved global count plus what this process inserted since.
		ckNow := ck.due(g.distinct + res.DistinctStates - baseDistinct)
		if next, levelViolations, ckNow, f = cl.seal(pool, depth, next, levelViolations, ckNow); f != nil {
			return fail(f)
		}
		// Violations within a level are ordered by state fingerprint so the
		// reported counterexample does not depend on scheduling.
		sortViolations(levelViolations)
		own = append(own, levelViolations...)
		// The next frontier is sorted by fingerprint: with a deterministic
		// level order, block composition — and therefore every block-level
		// stop decision above — is identical across runs and worker counts.
		// (A spilled level merge-reads back in the same sorted order.)
		sortFrontier(next)
		spare = lf.mem[:0]
		lf.discard()
		lf = sink.finish(next)

		// Level boundary: the frontier is well-defined and workers are
		// quiescent — snapshot it when the cadence is due. A solo run that
		// sees it is ending (a level cut short mid-way, whose frontier is
		// incomplete; nothing left to expand; a violation it stops at) keeps
		// the previous complete-level snapshot instead. Peers always follow
		// the coordinator, or the manifest could commit a depth one never wrote.
		ending := solo && (partialLevel || lf.size() == 0 || c.opts.StopAtFirstViolation && len(own) > 0)
		ckNow = ckNow && !ending
		ckErr, chains := "", []chainPos(nil)
		if ckNow {
			if ckErr = ck.write(c, res, depth, lf, own, restoredElapsed+time.Since(start)); ckErr == "" {
				chains = []chainPos{ck.chain.chainPos}
			}
		}
		if g, f = cl.resolve(depth, own, view(ckErr, chains)); f != nil {
			return fail(f)
		}
		if ckNow {
			ck.settle(c, res, depth, g)
		}
		detail := map[string]string{
			"depth":       strconv.Itoa(depth),
			"distinct":    strconv.Itoa(g.distinct),
			"queue":       strconv.Itoa(g.frontier),
			"transitions": strconv.FormatInt(res.Transitions, 10),
			"dedup_hits":  strconv.FormatInt(res.DedupHits, 10),
		}
		if !solo {
			detail["peer"] = strconv.Itoa(cl.self)
		}
		c.opts.Tracer.Emit(obs.Event{Layer: "spec", Kind: "level", Node: -1, Detail: detail})
		if c.cover != nil {
			c.cover.Levels = append(c.cover.Levels, obs.LevelStats{
				Depth:       depth,
				Frontier:    expanded,
				Fresh:       lf.size(),
				Transitions: res.Transitions - baseTrans,
				Dedup:       res.DedupHits - baseDedup,
				Violations:  len(levelViolations),
				FpsetProbes: c.visited.Stats().Probes - baseProbes,
				Checkpoint:  res.Checkpoints > baseCk,
			})
		}
	}

	if stop == "" {
		stop = "exhausted"
		if g.violations > 0 && c.opts.StopAtFirstViolation {
			stop = "violation"
		} else if g.canceled {
			// A cancel that landed on the final block would otherwise read as
			// a completed search; an interrupted run never claims exhaustion.
			stop = "canceled"
		}
	}
	res.StopReason, res.Exhausted = stop, stop == "exhausted"
	res.Duration = restoredElapsed + time.Since(start)

	// Assemble the global result and reconstruct (or serve) the traces, then
	// publish: the last gauges and progress line carry cluster-wide totals.
	if f := cl.final(c, res, own); f != nil {
		return fail(f)
	}
	metrics.publish(c, res, g.frontier, depth, c.visited)
	if c.opts.Progress != nil {
		last := res.progress(g.frontier, depth)
		last.Final = true
		reporter.Emit(last)
	}
	return res
}

// progress is the run's state as a progress report.
func (r *Result) progress(queueLen, depth int) obs.Progress {
	return obs.Progress{
		DistinctStates: r.DistinctStates,
		QueueLen:       queueLen,
		Transitions:    r.Transitions,
		DedupHits:      r.DedupHits,
		Depth:          depth,
	}
}

// canceled reports whether Options.Context has been canceled — the
// cooperative stop signal checked at block and level boundaries.
func (c *Checker) canceled() bool {
	return c.opts.Context != nil && c.opts.Context.Err() != nil
}

func sortFrontier(fs []frontierEntry) {
	slices.SortFunc(fs, func(a, b frontierEntry) int { return cmp.Compare(a.fp, b.fp) })
}

// sortViolations orders violations by (depth, state fingerprint, invariant
// name) — a total order independent of discovery order.
func sortViolations(vs []*Violation) {
	slices.SortFunc(vs, func(a, b *Violation) int {
		if c := cmp.Compare(a.Depth, b.Depth); c != 0 {
			return c
		}
		if c := cmp.Compare(a.fp, b.fp); c != 0 {
			return c
		}
		return cmp.Compare(a.Invariant, b.Invariant)
	})
}

// chunkOut accumulates one worker's share of a block expansion. It lives on
// the worker and is reused block after block: fresh keeps its capacity
// across drains, so the steady state allocates nothing here.
type chunkOut struct {
	fresh []frontierEntry
	work  int64
	dedup int64
	viols []*Violation
	// cands is what the cluster strategy produces instead of fresh and
	// viols: uninserted candidate successors (see cluster.go), and
	// badAction whether one fired an action outside the declared vocabulary.
	cands     []clusterCand
	badAction bool
}

// expandWorker is one member of the persistent expansion pool. Its scratch
// buffer (pooled successor enumeration) and accumulators live as long as
// the pool, so per-block allocation is amortised away.
type expandWorker struct {
	c   *Checker
	buf []spec.Succ
	out chunkOut
	// osc is the worker-private orbit-hash scratch: the incremental
	// canonicalization path (spec.OrbitHasher) reuses its sub-digest arrays
	// across every successor this worker ever hashes, so the hot loop does
	// not allocate.
	osc fp.OrbitScratch
	// wc is the worker's private coverage accumulator (nil unless
	// Options.Cover); it is folded into the run profile and reset at the
	// same block barrier that drains out.
	wc *obs.WorkerCover
	// Cluster strategy only, both level-scoped and reset by seal: seen holds
	// the fingerprints this worker buffered as candidates this level, so a
	// repeat is scored before it costs a Keep or an encoding; slab holds the
	// encodings of its outbound candidates until seal has built the blocks,
	// and enc is the scratch each is encoded into first.
	seen fpSeen
	slab encSlab
	enc  []byte
}

// expandJob is one frontier block broadcast to the pool. Workers claim
// dynamically sized sub-chunks by bumping cursor; a worker that draws
// expensive states simply claims fewer chunks.
type expandJob struct {
	entries []frontierEntry
	depth   int
	chunk   int
	cursor  atomic.Int64
	done    sync.WaitGroup
}

// expandPool is the persistent expansion worker pool: workers goroutines
// started once per Run and fed frontier blocks until close. Worker 0 is the
// caller's goroutine — with Workers=1 the pool spawns nothing and expansion
// runs inline.
type expandPool struct {
	c    *Checker
	invs []spec.Invariant
	ws   []*expandWorker
	jobs []chan *expandJob // one channel per background worker (ws[1:])

	// Cluster strategy only: the level's candidates awaiting seal (one per
	// fingerprint per worker), and whether a worker fired an action outside
	// the declared vocabulary, which seal turns into a config error.
	cands     []clusterCand
	badAction bool
}

func (c *Checker) newExpandPool(workers int, invs []spec.Invariant) *expandPool {
	p := &expandPool{c: c, invs: invs, ws: make([]*expandWorker, workers)}
	for i := range p.ws {
		p.ws[i] = &expandWorker{c: c}
		if c.cover != nil {
			p.ws[i].wc = obs.NewWorkerCover()
		}
	}
	p.jobs = make([]chan *expandJob, workers-1)
	for i := range p.jobs {
		ch := make(chan *expandJob, 1)
		p.jobs[i] = ch
		w := p.ws[i+1]
		go func() {
			for job := range ch {
				w.run(p, job)
				job.done.Done()
			}
		}()
	}
	return p
}

// close shuts the pool's background goroutines down. The pool must be
// quiescent (no expand in flight).
func (p *expandPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// expand fans one frontier block across the pool and returns when every
// state in it has been expanded and inserted. Small blocks skip the
// broadcast and run inline on the caller's goroutine.
func (p *expandPool) expand(entries []frontierEntry, depth int) {
	workers := len(p.ws)
	if workers == 1 || len(entries) < 2*workers {
		p.ws[0].expandChunkAny(p, entries, depth)
		return
	}
	job := &expandJob{entries: entries, depth: depth, chunk: chunkSize(len(entries), workers)}
	job.done.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- job
	}
	p.ws[0].run(p, job)
	job.done.Wait()
}

// drainInto folds every worker's accumulators into the caller's level state
// and resets them for the next block — whichever strategy filled them: a solo
// worker leaves fresh states and violations, a cluster worker leaves
// candidates, and the other side's fields are empty. The slices keep
// their capacity; their state pointers are cleared so drained states do not
// outlive the level in worker-owned memory.
func (p *expandPool) drainInto(res *Result, next *[]frontierEntry, viols *[]*Violation) {
	cover := p.c.cover
	for _, w := range p.ws {
		cover.MergeWorker(w.wc)
		out := &w.out
		// Every enumerated successor was canonicalized exactly once, so
		// out.work doubles as the block's canonicalization count. Folding it
		// here keeps the counter off the hot path.
		p.c.countCanon(out.work)
		res.Transitions += out.work
		res.DedupHits += out.dedup
		res.DistinctStates += len(out.fresh)
		*next = append(*next, out.fresh...)
		*viols = append(*viols, out.viols...)
		p.cands = append(p.cands, out.cands...)
		p.badAction = p.badAction || out.badAction
		clear(out.fresh)
		clear(out.cands)
		out.fresh, out.cands = out.fresh[:0], out.cands[:0]
		out.work, out.dedup, out.viols, out.badAction = 0, 0, nil, false
	}
}

// chunkSize picks the dynamic sub-chunk length for a block: small enough
// that each worker claims many chunks (so uneven successor counts balance
// out), large enough to amortise the atomic cursor bump.
func chunkSize(n, workers int) int {
	return max(16, min(1024, n/(workers*16)))
}

// run claims sub-chunks off the job's cursor until the block is exhausted.
func (w *expandWorker) run(p *expandPool, job *expandJob) {
	for {
		end := int(job.cursor.Add(int64(job.chunk)))
		lo := end - job.chunk
		if lo >= len(job.entries) {
			return
		}
		w.expandChunkAny(p, job.entries[lo:min(end, len(job.entries))], job.depth)
	}
}

// expandChunkAny dispatches a sub-chunk to the run's dedup strategy — per
// sub-chunk, never per successor.
func (w *expandWorker) expandChunkAny(p *expandPool, entries []frontierEntry, depth int) {
	if w.c.cluster != nil {
		w.expandChunkCluster(entries, depth)
	} else {
		w.expandChunk(p, entries, depth)
	}
}

// expandChunk expands one sub-chunk: pooled successor enumeration,
// canonical fingerprints, probe-and-insert into the shared fingerprint set,
// and invariant checks on fresh states. Results accumulate on the worker
// until the block-level drain.
func (w *expandWorker) expandChunk(p *expandPool, entries []frontierEntry, depth int) {
	c := w.c
	out := &w.out
	for _, fe := range entries {
		w.buf = c.m.AppendNext(fe.state, w.buf[:0])
		out.work += int64(len(w.buf))
		for i, su := range w.buf {
			fp, reduced := c.canonicalFPScratch(su.State, &w.osc)
			fresh := c.visited.Insert(fp, fe.fp, int32(depth))
			if wc := w.wc; wc != nil {
				if reduced {
					wc.SymmetryHit()
				}
				wc.Observe(su.Event.Action, depth, fresh)
			}
			if !fresh {
				out.dedup++
				continue
			}
			// Keep: the frontier outlives the buffer; a duplicate stays behind
			// in the slack, where the machine builds the next successor.
			out.fresh = append(out.fresh, frontierEntry{state: spec.Keep(w.buf, i, nil), fp: fp})
			if v := checkInvariants(p.invs, su.State, depth, fp); v != nil {
				out.viols = append(out.viols, v)
			}
		}
	}
}

func checkInvariants(invs []spec.Invariant, s spec.State, depth int, fp uint64) *Violation {
	for _, inv := range invs {
		if err := inv.Check(s); err != nil {
			return &Violation{Invariant: inv.Name, Err: err, Depth: depth, fp: fp}
		}
	}
	return nil
}
