package explorer

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// Distributed level-synchronous BFS. The fingerprint space is partitioned
// across peers by transport.Owner (contiguous slices of the Mix64-remixed
// space, balanced even for symmetry-reduced min-of-orbit fingerprints), and
// every peer runs the same loop:
//
//  1. Expand its share of the frontier. Workers never insert into the
//     fingerprint set during expansion; each successor either hits the local
//     set (owned + already visited → a dedup hit, counted immediately) or is
//     buffered as a candidate (fp, parent, action, state).
//  2. Fold the workers' candidates: one survivor per fingerprint, smallest
//     parent wins, losers count as dedup hits. This is pure wire-volume
//     reduction — the owner-side merge would pick the same survivor.
//  3. DATA barrier: candidates are routed to their owners as sorted,
//     compressed blocks (transport.EncodeBlock). The coordinator's barrier
//     summary carries the checkpoint cadence decision.
//  4. Owner merge: local + inbound candidates are sorted by (fp, parent) and
//     merged per fingerprint group — smallest parent inserts, the rest are
//     dedup hits. Fresh states join the next frontier (fp-sorted by
//     construction) and are goal/invariant-checked here, at their owner.
//  5. RESOLVE barrier: summary-only exchange of cumulative counters,
//     next-frontier sizes, and violations. Every peer computes the same
//     global stop decision from the same summaries, so the cluster always
//     stops at the same level without any coordinator round trip.
//
// Determinism argument. A parent fingerprint is expanded by exactly one peer
// (its owner), so within one fingerprint's candidate group all parents are
// distinct and sorting by (fp, parent) is a total order independent of
// arrival order, peer count, and worker count. The surviving (parent, depth)
// edge is the minimum parent at minimal depth — exactly the tie-break
// fpset.Insert applies in single-process runs — and the next frontier is the
// same fp-sorted set of fresh states every configuration produces. By
// induction over levels, counters, violations, coverage, and traces match a
// single-process run byte for byte (MaxQueueLen and fpset probe counts are
// per-peer structural measures and are summed, not reproduced).
//
// The coverage profile a cluster produces is the canonical W=1 profile at
// every worker count: freshness is attributed in the serial merge, after the
// fold picked each fingerprint's min-parent first-generated candidate. This
// is strictly more deterministic than single-process W>1 collection, where
// two actions reaching the same state within one level race for the fresh
// credit in per-action stats (totals are unaffected either way).
//
// Checkpoints are per-peer snapshots (the single-process envelope, see
// checkpoint.go) written at the same level on every peer (the coordinator
// drives the cadence through the data barrier), committed cluster-wide by a
// manifest the coordinator writes only after a resolve barrier confirms
// every peer's snapshot succeeded. Resume loads the manifest depth on every
// peer and re-validates compatibility at the hello barrier.

// PeerOptions configures one peer of a distributed exploration.
type PeerOptions struct {
	// Conn is this peer's endpoint of the cluster (transport.NewMesh for
	// in-process peers, transport.DialTCP for processes). The checker owns
	// the Conn and closes it when the run ends — including on failure, which
	// unblocks every other peer waiting at a barrier.
	Conn transport.Conn
}

// invalidAction marks a fired action missing from the declared vocabulary;
// the drain turns it into a run-fatal configuration error.
const invalidAction = ^uint16(0)

// clusterCand is one buffered candidate successor. Locally generated
// candidates carry the live state; inbound ones carry its wire encoding and
// are decoded only if they win their merge group.
type clusterCand struct {
	fp     uint64
	parent uint64
	action uint16
	state  spec.State
	enc    []byte
}

// clusterCtx is the per-run distributed context hung off the Checker.
type clusterCtx struct {
	conn      transport.Conn
	self      int
	peers     int
	actions   []string
	actionIdx map[string]uint16
	seq       uint64 // next barrier tag; every peer calls Exchange in lockstep
}

func (cl *clusterCtx) exchange(blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	tag := cl.seq
	cl.seq++
	return cl.conn.Exchange(tag, blocks, summary)
}

// clusterHello is the first-barrier summary: every peer's run identity,
// validated all-to-all before any exploration.
type clusterHello struct {
	runIdentity
	ResumeDepth int `json:"resume_depth"` // -1 for a fresh run
}

// clusterData is the data-barrier summary. Only the coordinator's instance
// carries decisions; other peers send it empty.
type clusterData struct {
	// Checkpoint tells every peer to snapshot after merging this level.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// PruneBelow lets peers delete snapshots below the last committed
	// manifest depth.
	PruneBelow int `json:"prune_below,omitempty"`
}

// clusterResolve is the resolve-barrier summary: this peer's cumulative
// partial counters and the size of its next frontier.
type clusterResolve struct {
	Distinct     int             `json:"distinct"`
	Transitions  int64           `json:"transitions"`
	DedupHits    int64           `json:"dedup_hits"`
	NextFrontier int             `json:"next_frontier"`
	GoalReached  bool            `json:"goal_reached,omitempty"`
	DeadlineHit  bool            `json:"deadline_hit,omitempty"`
	CkErr        string          `json:"ck_err,omitempty"`
	Violations   []snapViolation `json:"violations,omitempty"` // cumulative, own share
}

// clusterFinal is the last-barrier summary: everything needed to assemble
// the identical global Result on every peer.
type clusterFinal struct {
	Distinct    int             `json:"distinct"`
	Transitions int64           `json:"transitions"`
	DedupHits   int64           `json:"dedup_hits"`
	MaxQueueLen int             `json:"max_queue_len"`
	GoalReached bool            `json:"goal_reached,omitempty"`
	Violations  []snapViolation `json:"violations,omitempty"`
	Cover       *obs.Cover      `json:"cover,omitempty"`
}

// clusterGlobals is the cluster-wide view a resolve barrier establishes.
type clusterGlobals struct {
	distinct int
	frontier int
	goal     bool
	deadline bool
	ckAllOK  bool
	viols    []snapViolation
}

// sortSnapViolations orders violations by (depth, fp, invariant) — the same
// total order sortViolations applies.
func sortSnapViolations(vs []snapViolation) {
	slices.SortFunc(vs, func(a, b snapViolation) int {
		if c := cmp.Compare(a.Depth, b.Depth); c != 0 {
			return c
		}
		if c := cmp.Compare(a.FP, b.FP); c != 0 {
			return c
		}
		return cmp.Compare(a.Invariant, b.Invariant)
	})
}

// lookupEdge resolves a fingerprint's parent edge, probing the owning peer
// when the fingerprint is not local — the trace-reconstruction path of a
// distributed run (coordinator only; other peers answer via ServeProbes).
func (c *Checker) lookupEdge(f uint64) (fpset.Edge, bool) {
	if cl := c.cluster; cl != nil {
		if owner := transport.Owner(f, cl.peers); owner != cl.self {
			parent, depth, ok, err := cl.conn.Probe(owner, f)
			if err != nil || !ok {
				return fpset.Edge{}, false
			}
			return fpset.Edge{Parent: parent, Depth: depth}, true
		}
	}
	return c.visited.Lookup(f)
}

// runCluster is the distributed counterpart of Run; see the file comment for
// the protocol and the determinism argument.
func (c *Checker) runCluster() *Result {
	start := time.Now()
	res := &Result{}
	conn := c.opts.Peer.Conn
	defer conn.Close()

	fail := func(reason string, err error) *Result {
		res.Err = err
		res.StopReason = reason
		return res
	}

	if c.codec == nil {
		return fail("config-error", c.errNoCodec("cluster"))
	}
	actions := spec.DeclaredActions(c.m)
	if len(actions) == 0 {
		return fail("config-error", fmt.Errorf("cluster: machine %q does not declare its action vocabulary (spec.ActionLister)", c.m.Name()))
	}
	if len(actions) > 0xFFFF {
		return fail("config-error", fmt.Errorf("cluster: %d declared actions exceed the wire format's 65535 limit", len(actions)))
	}
	if c.opts.MemBudget > 0 {
		return fail("config-error", errors.New("cluster: MemBudget is not supported in distributed runs (partitioning already divides the footprint)"))
	}

	cl := &clusterCtx{
		conn: conn, self: conn.Self(), peers: conn.Peers(),
		actions: actions, actionIdx: make(map[string]uint16, len(actions)),
	}
	for i, a := range actions {
		cl.actionIdx[a] = uint16(i)
	}
	c.cluster = cl
	c.ident = c.identity()

	workers := c.opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	reporter := c.opts.newReporter()
	metrics := newRunMetrics(c.opts.Metrics)
	if c.opts.Metrics != nil {
		c.opts.Metrics.Gauge("transport.peers").Set(int64(cl.peers))
		c.opts.Metrics.Gauge("transport.peer_id").Set(int64(cl.self))
	}
	invs := c.m.Invariants()

	// Resume before the hello barrier so the loaded depth is validated
	// against every peer's.
	resumeDepth := -1
	var restored *snapshot
	if c.opts.Checkpoint.Resume {
		var err error
		if restored, err = c.loadClusterSnapshot(cl); err != nil {
			return fail("checkpoint-error", fmt.Errorf("resume: %w", err))
		}
		resumeDepth = restored.header.Depth
	}

	if c.opts.Cover {
		res.Cover = obs.NewCover("bfs", actions)
		c.cover = res.Cover
	}

	// Hello barrier: all-to-all compatibility check. The transport handshake
	// already validated the run digest and cluster size for TCP; this covers
	// the in-process mesh too and produces better errors.
	hb, err := json.Marshal(clusterHello{runIdentity: c.ident, ResumeDepth: resumeDepth})
	if err != nil {
		return fail("config-error", err)
	}
	_, hsums, err := cl.exchange(nil, hb)
	if err != nil {
		return fail("transport-error", fmt.Errorf("cluster hello: %w", err))
	}
	for q, raw := range hsums {
		if q == cl.self {
			continue
		}
		var h clusterHello
		if err := json.Unmarshal(raw, &h); err != nil {
			return fail("config-error", fmt.Errorf("cluster hello from peer %d: %w", q, err))
		}
		if h.runIdentity != c.ident {
			return fail("config-error", fmt.Errorf("cluster: peer %d runs an incompatible model or configuration", q))
		}
		if h.ResumeDepth != resumeDepth {
			return fail("config-error", fmt.Errorf("cluster: peer %d resumes from depth %d, this peer from %d", q, h.ResumeDepth, resumeDepth))
		}
	}

	depth := 0
	var frontier []frontierEntry
	var restoredElapsed time.Duration
	var ownViols []snapViolation // cumulative violations found at this peer

	if restored != nil {
		hdr := &restored.header
		hdr.restoreInto(res, c.cover)
		ownViols = hdr.Violations
		restoredElapsed = time.Duration(hdr.ElapsedNs)
		depth, frontier = hdr.Depth, restored.frontier
	} else {
		// Init seeding: every peer canonicalises every initial state (they
		// are few) but keeps only its own share. A duplicate initial state
		// is a dedup hit at the owner of its fingerprint, so the global sum
		// matches a single-process run.
		seen := make(map[uint64]bool)
		for _, s := range c.m.Init() {
			f := c.canonicalFP(s)
			c.countCanon(1)
			if seen[f] {
				if transport.Owner(f, cl.peers) == cl.self {
					res.DedupHits++
				}
				continue
			}
			seen[f] = true
			if transport.Owner(f, cl.peers) != cl.self {
				continue
			}
			c.visited.Insert(f, f, 0)
			frontier = append(frontier, frontierEntry{state: s, fp: f})
			if c.opts.Goal != nil && c.opts.Goal(s) {
				res.GoalReached = true
			}
			if v := checkInvariants(invs, s, 0, f); v != nil {
				ownViols = append(ownViols, snapViolationOf(v))
			}
		}
		sortFrontier(frontier)
		res.DistinctStates = len(frontier)
		res.MaxQueueLen = len(frontier)
		if c.cover != nil {
			c.cover.Levels = append(c.cover.Levels, obs.LevelStats{
				Depth: 0, Frontier: len(frontier), Fresh: len(frontier),
			})
		}
	}

	// Depth-0 resolve: establishes the global frontier size, distinct count,
	// and violation set, putting fresh and resumed runs on the same footing.
	gl, err := c.clusterResolveBarrier(cl, res, len(frontier), ownViols, false, "")
	if err != nil {
		return fail("transport-error", fmt.Errorf("cluster resolve at depth %d: %w", depth, err))
	}
	gDistinct, gFrontier, gViols := gl.distinct, gl.frontier, gl.viols
	gDeadline := gl.deadline

	deadline := time.Time{}
	if c.opts.Deadline > 0 {
		deadline = start.Add(c.opts.Deadline)
	}

	pool := c.newExpandPool(workers, invs)
	defer pool.close()

	ck := c.newClusterCheckpointer()
	if ck != nil && restored != nil {
		ck.pruneBelow = resumeDepth
	}

	stop := ""
	for gFrontier > 0 {
		// Stop checks mirror the single-process loop top, evaluated on the
		// globals every peer derived from the same resolve summaries — so
		// every peer takes the same branch. Max-states and deadline are
		// level-granular here (single-process checks them mid-level), a
		// documented divergence for those stop reasons only.
		if c.opts.StopAtFirstViolation && len(gViols) > 0 {
			stop = "violation"
			break
		}
		if c.opts.MaxDepth > 0 && depth >= c.opts.MaxDepth {
			stop = "max-depth"
			break
		}
		if c.opts.MaxStates > 0 && gDistinct >= c.opts.MaxStates {
			stop = "max-states"
			break
		}
		if gDeadline {
			stop = "deadline"
			break
		}

		depth++

		var baseTrans, baseDedup, baseProbes int64
		var expanded int
		if c.cover != nil {
			baseTrans, baseDedup = res.Transitions, res.DedupHits
			baseProbes = c.visited.Stats().Probes
			expanded = len(frontier)
		}

		// Expand the local frontier into candidate buffers (no inserts).
		byFP := make(map[uint64]int, 2*len(frontier))
		var cands []clusterCand
		const block = 1 << 14
		for lo := 0; lo < len(frontier); lo += block {
			hi := min(lo+block, len(frontier))
			pool.expand(frontier[lo:hi], depth)
			for k := lo; k < hi; k++ {
				frontier[k].state = nil
			}
			if err := pool.drainClusterInto(res, depth, byFP, &cands); err != nil {
				return fail("config-error", err)
			}
			queueLen := (len(frontier) - hi) + len(cands)
			if queueLen > res.MaxQueueLen {
				res.MaxQueueLen = queueLen
			}
			metrics.publish(c, res, queueLen, depth, c.visited)
			reporter.Maybe(obs.Progress{
				DistinctStates: res.DistinctStates,
				QueueLen:       queueLen,
				Transitions:    res.Transitions,
				DedupHits:      res.DedupHits,
				Depth:          depth,
			})
		}
		// Route candidates to their owners: one (owner, fp) sort groups the
		// per-owner blocks contiguously, each internally in the fp order
		// AppendBlock requires. (Owner remixes the fingerprint to undo the
		// min-of-orbit bias of symmetry reduction, so it is not monotone in
		// fp and the owner key must be sorted on explicitly.)
		slices.SortFunc(cands, func(a, b clusterCand) int {
			if r := cmp.Compare(transport.Owner(a.fp, cl.peers), transport.Owner(b.fp, cl.peers)); r != 0 {
				return r
			}
			return cmp.Compare(a.fp, b.fp)
		})
		blocks, selfCands, err := c.buildClusterBlocks(cands)
		if err != nil {
			return fail("transport-error", fmt.Errorf("cluster: encode blocks at depth %d: %w", depth, err))
		}

		data := clusterData{}
		if cl.self == 0 && ck != nil {
			data.Checkpoint = ck.due(gDistinct)
			data.PruneBelow = ck.pruneBelow
		}
		draw, err := json.Marshal(data)
		if err != nil {
			return fail("config-error", err)
		}
		in, dsums, err := cl.exchange(blocks, draw)
		if err != nil {
			return fail("transport-error", fmt.Errorf("cluster: data barrier at depth %d: %w", depth, err))
		}
		coord := data
		if cl.self != 0 {
			if err := json.Unmarshal(dsums[0], &coord); err != nil {
				return fail("transport-error", fmt.Errorf("cluster: coordinator summary at depth %d: %w", depth, err))
			}
		}

		next, levelViols, err := c.clusterMerge(cl, res, depth, selfCands, in, invs)
		if err != nil {
			return fail("transport-error", err)
		}
		ownViols = append(ownViols, levelViols...)
		frontier = next
		if len(frontier) > res.MaxQueueLen {
			res.MaxQueueLen = len(frontier)
		}

		ckErr := ""
		if coord.Checkpoint {
			hdr := c.header(res, depth, restoredElapsed+time.Since(start), ownViols)
			var err error
			if dir := c.opts.Checkpoint.Dir; dir == "" {
				err = fmt.Errorf("checkpoint requested by coordinator but this peer has no checkpoint dir")
			} else {
				_, _, err = c.writeSnapshot(clusterSnapPath(dir, cl.self, depth), hdr, newMemFrontier(frontier))
			}
			if err != nil {
				ckErr = err.Error()
				reporter.Warnf("cluster checkpoint failed at depth %d (previous checkpoint still valid): %v", depth, err)
				if metrics != nil {
					metrics.ckErrors.Inc()
				}
			}
		}
		if coord.PruneBelow > 0 {
			c.pruneClusterSnaps(cl, coord.PruneBelow)
		}

		deadlineHit := !deadline.IsZero() && time.Now().After(deadline)
		gl, err := c.clusterResolveBarrier(cl, res, len(frontier), ownViols, deadlineHit, ckErr)
		if err != nil {
			return fail("transport-error", fmt.Errorf("cluster resolve at depth %d: %w", depth, err))
		}
		gDistinct, gFrontier, gViols, gDeadline = gl.distinct, gl.frontier, gl.viols, gl.deadline
		if gFrontier > 0 {
			res.MaxDepth = depth
		}
		ckDone := false
		if coord.Checkpoint {
			if gl.ckAllOK {
				res.Checkpoints++
				ckDone = true
				if metrics != nil {
					metrics.checkpoints.Inc()
				}
				if cl.self == 0 {
					if err := c.writeClusterManifest(depth); err != nil {
						reporter.Warnf("cluster manifest write failed at depth %d: %v", depth, err)
					} else {
						ck.pruneBelow = depth
					}
				}
			}
			if cl.self == 0 {
				ck.emit(gDistinct)
			}
		}

		c.opts.Tracer.Emit(obs.Event{
			Layer: "spec", Kind: "level", Node: -1,
			Detail: map[string]string{
				"depth":       strconv.Itoa(depth),
				"distinct":    strconv.Itoa(gDistinct),
				"queue":       strconv.Itoa(gFrontier),
				"transitions": strconv.FormatInt(res.Transitions, 10),
				"dedup_hits":  strconv.FormatInt(res.DedupHits, 10),
				"peer":        strconv.Itoa(cl.self),
			},
		})
		if c.cover != nil {
			c.cover.Levels = append(c.cover.Levels, obs.LevelStats{
				Depth:       depth,
				Frontier:    expanded,
				Fresh:       len(frontier),
				Transitions: res.Transitions - baseTrans,
				Dedup:       res.DedupHits - baseDedup,
				Violations:  len(levelViols),
				FpsetProbes: c.visited.Stats().Probes - baseProbes,
				Checkpoint:  ckDone,
			})
		}
	}

	if stop == "" {
		if len(gViols) > 0 && c.opts.StopAtFirstViolation {
			stop = "violation"
		} else {
			stop = "exhausted"
			res.Exhausted = true
		}
	}
	res.StopReason = stop
	res.Duration = restoredElapsed + time.Since(start)

	// Final barrier: every peer assembles the same global Result.
	fin := clusterFinal{
		Distinct: res.DistinctStates, Transitions: res.Transitions,
		DedupHits: res.DedupHits, MaxQueueLen: res.MaxQueueLen,
		GoalReached: res.GoalReached, Violations: ownViols, Cover: res.Cover,
	}
	fraw, err := json.Marshal(fin)
	if err != nil {
		return fail("config-error", err)
	}
	_, fsums, err := cl.exchange(nil, fraw)
	if err != nil {
		return fail("transport-error", fmt.Errorf("cluster final barrier: %w", err))
	}
	allViols := append([]snapViolation(nil), ownViols...)
	for q := range fsums {
		if q == cl.self {
			continue
		}
		var f clusterFinal
		if err := json.Unmarshal(fsums[q], &f); err != nil {
			return fail("transport-error", fmt.Errorf("cluster final summary from peer %d: %w", q, err))
		}
		res.DistinctStates += f.Distinct
		res.Transitions += f.Transitions
		res.DedupHits += f.DedupHits
		// MaxQueueLen is summed: per-peer high-water marks are concurrent
		// structural measures with no meaningful global maximum; the sum
		// bounds the cluster's peak frontier footprint.
		res.MaxQueueLen += f.MaxQueueLen
		res.GoalReached = res.GoalReached || f.GoalReached
		allViols = append(allViols, f.Violations...)
		res.Cover.Merge(f.Cover)
	}
	sortSnapViolations(allViols)
	res.Violations = res.Violations[:0]
	for _, v := range allViols {
		res.Violations = append(res.Violations, v.violation())
	}

	metrics.publish(c, res, gFrontier, depth, c.visited)
	if c.opts.Progress != nil {
		reporter.Emit(obs.Progress{
			DistinctStates: res.DistinctStates,
			QueueLen:       gFrontier,
			Transitions:    res.Transitions,
			DedupHits:      res.DedupHits,
			Depth:          depth,
			Final:          true,
		})
	}

	// Trace reconstruction needs parent edges from every shard, so the
	// coordinator probes the other peers, which serve lookups until the
	// coordinator says goodbye. Non-coordinator results carry the same
	// violations without traces.
	if cl.self == 0 {
		for _, v := range res.Violations {
			v.Trace = c.reconstruct(v)
		}
		if err := conn.Bye(); err != nil && res.Err == nil {
			res.Err = fmt.Errorf("cluster shutdown: %w", err)
		}
	} else {
		err := conn.ServeProbes(func(f uint64) (uint64, int32, bool) {
			e, ok := c.visited.Lookup(f)
			return e.Parent, e.Depth, ok
		})
		if err != nil && res.Err == nil {
			res.Err = fmt.Errorf("cluster probe service: %w", err)
		}
	}
	return res
}

// clusterResolveBarrier runs one summary-only barrier and folds every peer's
// summary into the global view.
func (c *Checker) clusterResolveBarrier(cl *clusterCtx, res *Result, nextFrontier int, ownViols []snapViolation, deadlineHit bool, ckErr string) (*clusterGlobals, error) {
	sum := clusterResolve{
		Distinct: res.DistinctStates, Transitions: res.Transitions,
		DedupHits: res.DedupHits, NextFrontier: nextFrontier,
		GoalReached: res.GoalReached, DeadlineHit: deadlineHit,
		CkErr: ckErr, Violations: ownViols,
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	_, sums, err := cl.exchange(nil, raw)
	if err != nil {
		return nil, err
	}
	g := &clusterGlobals{ckAllOK: true}
	for q := range sums {
		s := sum
		if q != cl.self {
			s = clusterResolve{}
			if err := json.Unmarshal(sums[q], &s); err != nil {
				return nil, fmt.Errorf("cluster: resolve summary from peer %d: %w", q, err)
			}
		}
		g.distinct += s.Distinct
		g.frontier += s.NextFrontier
		g.goal = g.goal || s.GoalReached
		g.deadline = g.deadline || s.DeadlineHit
		if s.CkErr != "" {
			g.ckAllOK = false
		}
		// Detection happens at the owner and each state violates at most
		// once, so per-peer cumulative lists are disjoint: concatenation is
		// already a set.
		g.viols = append(g.viols, s.Violations...)
	}
	sortSnapViolations(g.viols)
	return g, nil
}

// drainClusterInto folds every worker's counters and candidate buffers into
// the level accumulator, keeping one candidate per fingerprint (smallest
// parent wins; a losing candidate is a dedup hit, observed non-fresh, exactly
// as the owner-side merge would score it). Equal parents can only come from
// the same worker — a parent is expanded once — so generation order breaks
// the tie, matching single-process insertion order.
func (p *expandPool) drainClusterInto(res *Result, depth int, byFP map[uint64]int, cands *[]clusterCand) error {
	c := p.c
	cl := c.cluster
	cover := c.cover
	for _, w := range p.ws {
		cover.MergeWorker(w.wc)
		out := &w.out
		// As in drainInto: successors processed == canonicalizations, folded
		// at the barrier so the counter stays off the hot path.
		c.countCanon(out.work)
		res.Transitions += out.work
		res.DedupHits += out.dedup
		for _, cand := range out.cands {
			if cand.action == invalidAction {
				return fmt.Errorf("cluster: machine %q fired an action absent from its declared vocabulary", c.m.Name())
			}
			if idx, ok := byFP[cand.fp]; ok {
				prev := &(*cands)[idx]
				loser := cand
				if cand.parent < prev.parent {
					loser = *prev
					*prev = cand
				}
				res.DedupHits++
				cover.Observe(cl.actions[loser.action], depth, false)
			} else {
				byFP[cand.fp] = len(*cands)
				*cands = append(*cands, cand)
			}
		}
		for i := range out.cands {
			out.cands[i].state = nil
		}
		out.cands = out.cands[:0]
		out.work, out.dedup = 0, 0
	}
	return nil
}

// expandChunkCluster is the cluster-mode worker loop: successors are scored
// against the local shard only when this peer owns them (a hit is an
// immediate dedup), everything else is buffered for the level's exchange.
// Inserts never happen here, so Contains answers are stable for the whole
// level regardless of worker scheduling.
func (w *expandWorker) expandChunkCluster(entries []frontierEntry, depth int) {
	c := w.c
	cl := c.cluster
	out := &w.out
	for _, fe := range entries {
		w.buf = c.nextInto(fe.state, w.buf[:0])
		out.work += int64(len(w.buf))
		for _, su := range w.buf {
			f, reduced := c.canonicalFPScratch(su.State, &w.osc)
			if reduced {
				w.wc.SymmetryHit()
			}
			if transport.Owner(f, cl.peers) == cl.self && c.visited.Contains(f) {
				out.dedup++
				w.wc.Observe(su.Event.Action, depth, false)
				continue
			}
			action, ok := cl.actionIdx[su.Event.Action]
			if !ok {
				action = invalidAction
			}
			out.cands = append(out.cands, clusterCand{fp: f, parent: fe.fp, action: action, state: su.State})
		}
	}
}

// buildClusterBlocks splits the (owner, fp)-sorted candidate list into the
// local share and one encoded wire block per remote owner.
func (c *Checker) buildClusterBlocks(cands []clusterCand) ([][]byte, []clusterCand, error) {
	cl := c.cluster
	blocks := make([][]byte, cl.peers)
	var selfCands []clusterCand
	var wire []transport.Candidate
	i := 0
	for i < len(cands) {
		owner := transport.Owner(cands[i].fp, cl.peers)
		j := i + 1
		for j < len(cands) && transport.Owner(cands[j].fp, cl.peers) == owner {
			j++
		}
		if owner == cl.self {
			selfCands = cands[i:j]
		} else {
			wire = wire[:0]
			for k := i; k < j; k++ {
				wire = append(wire, transport.Candidate{
					FP: cands[k].fp, Parent: cands[k].parent, Action: cands[k].action,
					State: c.codec.AppendState(nil, cands[k].state),
				})
			}
			payload, err := transport.EncodeBlock(wire)
			if err != nil {
				return nil, nil, err
			}
			blocks[owner] = payload
		}
		i = j
	}
	return blocks, selfCands, nil
}

// clusterMerge merges this peer's local candidates with the inbound blocks:
// sort by (fp, parent), insert the minimum parent of each fingerprint group,
// score the rest as dedup hits, and goal/invariant-check the fresh states.
// The returned next frontier is fp-sorted by construction.
func (c *Checker) clusterMerge(cl *clusterCtx, res *Result, depth int, selfCands []clusterCand, in [][]byte, invs []spec.Invariant) ([]frontierEntry, []snapViolation, error) {
	merged := selfCands
	for q, payload := range in {
		if q == cl.self || len(payload) == 0 {
			continue
		}
		wcands, err := transport.DecodeWireBlock(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: block from peer %d at depth %d: %w", q, depth, err)
		}
		for i := range wcands {
			merged = append(merged, clusterCand{
				fp: wcands[i].FP, parent: wcands[i].Parent,
				action: wcands[i].Action, enc: wcands[i].State,
			})
		}
	}
	slices.SortFunc(merged, func(a, b clusterCand) int {
		if r := cmp.Compare(a.fp, b.fp); r != 0 {
			return r
		}
		return cmp.Compare(a.parent, b.parent)
	})
	cover := c.cover
	goal := c.opts.Goal
	var next []frontierEntry
	var viols []snapViolation
	i := 0
	for i < len(merged) {
		j := i + 1
		for j < len(merged) && merged[j].fp == merged[i].fp {
			j++
		}
		lead := &merged[i]
		if int(lead.action) >= len(cl.actions) {
			return nil, nil, fmt.Errorf("cluster: candidate %#x carries action index %d outside the shared table", lead.fp, lead.action)
		}
		fresh := c.visited.Insert(lead.fp, lead.parent, int32(depth))
		cover.Observe(cl.actions[lead.action], depth, fresh)
		if fresh {
			res.DistinctStates++
			st := lead.state
			if st == nil {
				var rest []byte
				var derr error
				st, rest, derr = c.codec.DecodeState(lead.enc)
				if derr != nil {
					return nil, nil, fmt.Errorf("cluster: decode state %#x at depth %d: %w", lead.fp, depth, derr)
				}
				if len(rest) != 0 {
					return nil, nil, fmt.Errorf("cluster: state %#x at depth %d: %d trailing bytes", lead.fp, depth, len(rest))
				}
			}
			next = append(next, frontierEntry{state: st, fp: lead.fp})
			if goal != nil && !res.GoalReached && goal(st) {
				res.GoalReached = true
			}
			if v := checkInvariants(invs, st, depth, lead.fp); v != nil {
				viols = append(viols, snapViolationOf(v))
			}
		} else {
			res.DedupHits++
		}
		for k := i + 1; k < j; k++ {
			if int(merged[k].action) >= len(cl.actions) {
				return nil, nil, fmt.Errorf("cluster: candidate %#x carries action index %d outside the shared table", merged[k].fp, merged[k].action)
			}
			res.DedupHits++
			cover.Observe(cl.actions[merged[k].action], depth, false)
		}
		i = j
	}
	return next, viols, nil
}
