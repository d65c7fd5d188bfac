package explorer

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// The cluster side of the level loop. Checker.Run (explorer.go) is the only
// BFS loop; a distributed run goes through it and meets the other peers at
// four seams, methods on *clusterCtx that are the identity on a nil receiver
// (a single-process run marshals nothing and runs no transport code): hello
// before exploring, seal (data barrier) and resolve (summary barrier) per
// level, final at the end — each documented at its method. The barrier tag
// sequence is hello, resolve(0), then data + resolve per level, final. The
// fingerprint space is partitioned by transport.Owner (contiguous slices of
// the Mix64-remixed space, balanced even for symmetry-reduced min-of-orbit
// fingerprints).
//
// The other thing a Conn selects is the dedup strategy. Cluster workers never
// insert during expansion (expandChunkCluster). A successor is a dedup hit on
// the spot when this peer owns it and has already visited it, or when the
// same worker already buffered its fingerprint this level (the worker's seen
// table); either way it costs no Keep and no encoding. Everything else is
// buffered as a candidate (fp, owner, parent, action, state). Seal sorts the
// level's candidates by (owner, fp, parent) and keeps the first of each
// fingerprint (what is left to drop are repeats across workers), routes
// each owner's run to it as a raw block, and each owner inserts in a serial
// P-way merge of its own run and the inbound blocks.
//
// Why the worker's first occurrence is the right survivor. A worker claims
// the fp-sorted level in ascending order, so the parents it expands increase;
// the first time it produces a fingerprint is therefore its smallest (parent,
// generation order) for it — the candidate a min-parent choice keeps, with
// generation order breaking ties between actions of one parent as
// single-process insertion does.
//
// Determinism argument. A parent fingerprint is expanded by exactly one peer
// (its owner) and one worker, so within one fingerprint's candidate group all
// parents are distinct and ordering by (fp, parent) is a total order
// independent of arrival order, peer count, and worker count. The surviving
// (parent, depth) edge is the minimum parent at minimal depth — exactly the
// tie-break fpset.Insert applies in single-process runs — and the next
// frontier is the same fp-sorted set of fresh states every configuration
// produces. By induction over levels, counters, violations, coverage, and
// traces match a single-process run byte for byte (MaxQueueLen and fpset
// probe counts are per-peer structural measures and are summed, not
// reproduced).
//
// The coverage profile a cluster produces is the canonical W=1 profile at
// every worker count: freshness is attributed in the serial merge, to each
// fingerprint's min-parent first-generated candidate. This is strictly more
// deterministic than single-process W>1 collection, where two actions
// reaching the same state within one level race for the fresh credit in
// per-action stats (totals are unaffected either way).

// PeerOptions configures one peer of a distributed exploration.
type PeerOptions struct {
	// Conn is this peer's endpoint of the cluster (transport.NewMesh for
	// in-process peers over pipes, transport.DialTCP for processes; both
	// speak the same frames). The checker owns
	// the Conn and closes it when the run ends — including on failure, which
	// unblocks every other peer waiting at a barrier.
	Conn transport.Conn
}

// clusterCand is one buffered candidate successor of this peer's. Those it
// owns carry the live state, taken out of the worker's buffer; outbound ones
// carry the encoding, appended to the worker's slab (their states are left to
// be recycled). owner is transport.Owner(fp), computed once by the worker.
type clusterCand struct {
	fp     uint64
	parent uint64
	action uint16
	owner  int32
	state  spec.State
	enc    []byte
}

// clusterCtx is the per-run distributed context hung off the Checker; nil in
// a single-process run, where every seam below is the identity.
type clusterCtx struct {
	c         *Checker
	res       *Result
	conn      transport.Conn
	self      int
	peers     int
	actions   []string
	actionIdx map[string]uint16
	seq       uint64 // next barrier tag; every peer calls Exchange in lockstep
	// crossRepeats counts the candidates seal dropped as repeats across
	// workers (tests assert the branch is exercised).
	crossRepeats int64
}

// joinCluster validates that the options can run distributed and
// hangs the context for conn off the checker.
func (c *Checker) joinCluster(conn transport.Conn, res *Result) *fatal {
	actions := c.m.Actions()
	if len(actions) > 0xFFFF {
		return &fatal{"config-error", fmt.Errorf("cluster: %d declared actions exceed the wire format's 65535 limit", len(actions))}
	}
	if c.opts.MemBudget > 0 {
		return &fatal{"config-error", errors.New("cluster: MemBudget is not supported in distributed runs (partitioning already divides the footprint)")}
	}
	cl := &clusterCtx{
		c: c, res: res, conn: conn, self: conn.Self(), peers: conn.Peers(),
		actions: actions, actionIdx: make(map[string]uint16, len(actions)),
	}
	for i, a := range actions {
		cl.actionIdx[a] = uint16(i)
	}
	c.opts.Metrics.Gauge("transport.peers").Set(int64(cl.peers))
	c.opts.Metrics.Gauge("transport.peer_id").Set(int64(cl.self))
	c.cluster = cl
	return nil
}

// owns reports whether this process is where fingerprint f is stored and
// expanded — always, without a cluster.
func (cl *clusterCtx) owns(f uint64) bool {
	return cl == nil || transport.Owner(f, cl.peers) == cl.self
}

// coordinator reports whether this process decides the checkpoint cadence,
// commits manifests and prints the result: peer 0, or a solo run.
func (cl *clusterCtx) coordinator() bool {
	return cl == nil || cl.self == 0
}

func (cl *clusterCtx) exchange(blocks [][]byte, summary any) ([][]byte, [][]byte, error) {
	raw, err := json.Marshal(summary)
	if err != nil {
		return nil, nil, err
	}
	tag := cl.seq
	cl.seq++
	return cl.conn.Exchange(tag, blocks, raw)
}

func transportErr(format string, args ...any) *fatal {
	return &fatal{"transport-error", fmt.Errorf(format, args...)}
}

// clusterHello is the first-barrier summary: every peer's run identity and
// checkpoint settings, validated all-to-all before any exploration, and on a
// resume the coordinator's manifest (or why it has none).
type clusterHello struct {
	runIdentity
	Checkpoint bool            `json:"checkpoint,omitempty"` // a checkpoint dir is set
	Resume     bool            `json:"resume,omitempty"`
	Manifest   json.RawMessage `json:"manifest,omitempty"`
	ResumeErr  string          `json:"resume_err,omitempty"`
}

// clusterData is the data-barrier summary. Only the coordinator's instance
// carries decisions; other peers send it empty.
type clusterData struct {
	// Checkpoint tells every peer to snapshot after merging this level.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Committed is the depth of the last committed manifest: a peer whose
	// chain it names may collect its garbage.
	Committed int `json:"committed,omitempty"`
}

// clusterResolve is the resolve-barrier summary: this peer's cumulative
// partial counters and the size of its next frontier.
type clusterResolve struct {
	Distinct     int             `json:"distinct"`
	Transitions  int64           `json:"transitions"`
	DedupHits    int64           `json:"dedup_hits"`
	NextFrontier int             `json:"next_frontier"`
	DeadlineHit  bool            `json:"deadline_hit,omitempty"`
	Canceled     bool            `json:"canceled,omitempty"`
	CkErr        string          `json:"ck_err,omitempty"`
	Chain        *chainPos       `json:"chain,omitempty"`      // prepared chain position, if it checkpointed
	Violations   []snapViolation `json:"violations,omitempty"` // cumulative, own share
}

// clusterFinal is the last-barrier summary: everything needed to assemble
// the identical global Result on every peer.
type clusterFinal struct {
	Distinct    int             `json:"distinct"`
	Transitions int64           `json:"transitions"`
	DedupHits   int64           `json:"dedup_hits"`
	MaxQueueLen int             `json:"max_queue_len"`
	Violations  []snapViolation `json:"violations,omitempty"`
	Cover       *obs.Cover      `json:"cover,omitempty"`
}

// The summaries below are read from other peers, so they are hostile bytes:
// each parser refuses what would turn into a wrong total or a wrong
// checkpoint instead of a named stop — a negative count (a frontier summed
// to zero ends the run as "exhausted"), a chain position that is not a chain
// log's, or a checkpoint this peer's own settings contradict. The caller
// names the peer; the error names the field.

// parseCoord reads the coordinator's data-barrier summary at depth, on a peer
// that checkpoints or not.
func parseCoord(raw []byte, depth int, checkpoints bool) (clusterData, error) {
	var d clusterData
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, err
	}
	if d.Committed < 0 || d.Committed > depth {
		return d, fmt.Errorf("committed depth %d outside 0..%d", d.Committed, depth)
	}
	if !checkpoints && (d.Checkpoint || d.Committed != 0) {
		return d, fmt.Errorf("checkpoint %v, committed %d, on a run without checkpoints", d.Checkpoint, d.Committed)
	}
	return d, nil
}

// parseResolve reads a peer's resolve summary at a level this peer
// checkpointed at or not; the coordinator decides for every peer, so a peer
// that disagrees is refused.
func parseResolve(raw []byte, checkpointed bool) (clusterResolve, error) {
	var s clusterResolve
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, err
	}
	if err := nonNegative(count{"distinct", int64(s.Distinct)}, count{"transitions", s.Transitions},
		count{"dedup_hits", s.DedupHits}, count{"next_frontier", int64(s.NextFrontier)}); err != nil {
		return s, err
	}
	if ch := s.Chain; ch != nil && (!chainFile.MatchString(ch.Log) || ch.Bytes <= 0 || ch.Blocks < 1 || s.CkErr != "") {
		return s, fmt.Errorf("chain position %+v (ck_err %q) is not a prepared chain log's", *ch, s.CkErr)
	}
	if (s.Chain != nil || s.CkErr != "") != checkpointed {
		return s, fmt.Errorf("chain %v, ck_err %q at a level this peer checkpointed = %v", s.Chain != nil, s.CkErr, checkpointed)
	}
	return s, violationDepths(s.Violations)
}

// parseFinal reads a peer's last-barrier summary.
func parseFinal(raw []byte) (clusterFinal, error) {
	var f clusterFinal
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, err
	}
	if err := nonNegative(count{"distinct", int64(f.Distinct)}, count{"transitions", f.Transitions},
		count{"dedup_hits", f.DedupHits}, count{"max_queue_len", int64(f.MaxQueueLen)}); err != nil {
		return f, err
	}
	return f, violationDepths(f.Violations)
}

// count is a summary field by its JSON name.
type count struct {
	name string
	v    int64
}

// nonNegative names the first count below zero.
func nonNegative(counts ...count) error {
	for _, c := range counts {
		if c.v < 0 {
			return fmt.Errorf("negative %s %d", c.name, c.v)
		}
	}
	return nil
}

// violationDepths refuses a reported violation at a negative depth.
func violationDepths(vs []snapViolation) error {
	for _, v := range vs {
		if v.Depth < 0 {
			return fmt.Errorf("violation of %s at depth %d", v.Invariant, v.Depth)
		}
	}
	return nil
}

// hello is the all-to-all compatibility check before any exploration —
// identity, and the same checkpoint and resume flags — and hands every peer
// the coordinator's manifest (man, from Checker.resumeManifest), parsed by the
// same reader, or its failure to read one, so every peer stops with
// "checkpoint-error" rather than wait on a peer that gave up. The TCP
// handshake already checked the run digest; the in-process mesh has none.
func (cl *clusterCtx) hello(man *manifest, manErr error) (*manifest, *fatal) {
	if cl != nil {
		o := cl.c.opts.Checkpoint
		me := clusterHello{runIdentity: cl.c.ident, Checkpoint: o.Dir != "", Resume: o.Resume}
		if manErr != nil {
			me.ResumeErr = manErr.Error()
		} else if man != nil {
			me.Manifest, _ = json.Marshal(man) // plain struct: cannot fail
		}
		_, sums, err := cl.exchange(nil, me)
		if err != nil {
			return nil, transportErr("cluster hello: %w", err)
		}
		var coord clusterHello
		for q, raw := range sums {
			if q == cl.self {
				continue
			}
			h, f := peerHello(q, raw, me)
			if f != nil {
				return nil, f
			}
			if q == 0 {
				coord = h
			}
		}
		if !cl.coordinator() && o.Resume {
			if coord.ResumeErr != "" {
				manErr = fmt.Errorf("coordinator: %s", coord.ResumeErr)
			} else {
				man, manErr = cl.c.parseManifest("coordinator's manifest", coord.Manifest)
			}
		}
	}
	if manErr != nil {
		return nil, &fatal{"checkpoint-error", fmt.Errorf("resume: %w", manErr)}
	}
	return man, nil
}

// peerHello parses peer q's hello summary and holds it to this peer's, me:
// the same run identity and the same checkpoint flags, or a config-error.
func peerHello(q int, raw []byte, me clusterHello) (clusterHello, *fatal) {
	var h clusterHello
	if err := json.Unmarshal(raw, &h); err != nil {
		return h, &fatal{"config-error", fmt.Errorf("cluster hello from peer %d: %w", q, err)}
	}
	if h.runIdentity != me.runIdentity {
		return h, &fatal{"config-error", fmt.Errorf("cluster: peer %d runs an incompatible model or configuration", q)}
	}
	if h.Checkpoint != me.Checkpoint || h.Resume != me.Resume {
		return h, &fatal{"config-error", fmt.Errorf("cluster: peer %d has checkpoint dir=%v resume=%v, this peer dir=%v resume=%v (every peer needs the same checkpoint flags)",
			q, h.Checkpoint, h.Resume, me.Checkpoint, me.Resume)}
	}
	return h, nil
}

// seal turns the level's candidates into this peer's share of the next
// frontier (appended to next, fp-sorted by construction) and its violations
// at depth (appended to viols): candidates are routed to their owners as
// sorted raw blocks (transport.EncodeBlock) over the data barrier, then
// merged with the inbound ones. ckDue goes in as this peer's cadence reading
// and comes out as the coordinator's, carried by its barrier summary, so the
// whole cluster snapshots at the same level.
func (cl *clusterCtx) seal(p *expandPool, depth int, next []frontierEntry, viols []*Violation, ckDue bool) ([]frontierEntry, []*Violation, bool, *fatal) {
	if cl == nil {
		return next, viols, ckDue, nil
	}
	if p.badAction {
		return nil, nil, false, &fatal{"config-error", fmt.Errorf("cluster: machine %q fired an action absent from its declared vocabulary", cl.c.m.Name())}
	}
	// One (owner, fp, parent) sort groups the per-owner runs contiguously,
	// each in the fp order AppendBlock requires, with a fingerprint's least
	// parent first. (Owner remixes the fingerprint to undo the min-of-orbit
	// bias of symmetry reduction, so it is not monotone in fp and the owner
	// key must be sorted on explicitly.)
	slices.SortFunc(p.cands, func(a, b clusterCand) int {
		if a.owner != b.owner {
			return cmp.Compare(a.owner, b.owner)
		}
		if a.fp != b.fp {
			return cmp.Compare(a.fp, b.fp)
		}
		return cmp.Compare(a.parent, b.parent)
	})
	blocks, local, err := cl.buildBlocks(cl.dropRepeats(p.cands, depth))
	if err != nil {
		return nil, nil, false, transportErr("cluster: encode blocks at depth %d: %w", depth, err)
	}
	// The blocks hold copies of every encoding: the workers' level state can go.
	for _, w := range p.ws {
		w.seen.reset()
		w.slab = w.slab[:0]
	}
	coord := clusterData{}
	if cl.coordinator() {
		coord = clusterData{Checkpoint: ckDue, Committed: cl.c.ck.commit}
	}
	in, sums, err := cl.exchange(blocks, coord)
	if err != nil {
		return nil, nil, false, transportErr("cluster: data barrier at depth %d: %w", depth, err)
	}
	if cl.self != 0 {
		if coord, err = parseCoord(sums[0], depth, cl.c.ck.dir != ""); err != nil {
			return nil, nil, false, transportErr("cluster: coordinator summary from peer 0 at depth %d: %w", depth, err)
		}
	}
	if next, viols, err = cl.merge(p.invs, depth, local, in, next, viols); err != nil {
		return nil, nil, false, &fatal{"transport-error", err}
	}
	clear(p.cands)
	p.cands = p.cands[:0]
	if len(next) > cl.res.MaxQueueLen {
		cl.res.MaxQueueLen = len(next)
	}
	cl.c.ck.committed(coord.Committed)
	return next, viols, coord.Checkpoint, nil
}

// dropRepeats keeps the first candidate of each fingerprint in the (owner,
// fp, parent)-sorted cands — its least parent — and scores the others as
// dedup hits, observed non-fresh. Workers already dropped their own repeats,
// so these are repeats across workers (W > 1 only). It compacts in place and
// returns the prefix it kept.
func (cl *clusterCtx) dropRepeats(cands []clusterCand, depth int) []clusterCand {
	n := 0
	for i := range cands {
		if n > 0 && cands[i].fp == cands[n-1].fp {
			cl.res.DedupHits++
			cl.c.cover.Observe(cl.actions[cands[i].action], depth, false)
			cl.crossRepeats++
			continue
		}
		cands[n] = cands[i]
		n++
	}
	return cands[:n]
}

// resolve runs one summary-only barrier and folds every peer's summary into
// the global view. Every peer derives the same globals from the same
// summaries, so the cluster takes each stop decision at the same level
// without a coordinator round trip.
func (cl *clusterCtx) resolve(depth int, own []*Violation, local levelView) (levelView, *fatal) {
	if cl == nil {
		return local, nil
	}
	res := cl.res
	sum := clusterResolve{
		Distinct: local.distinct, Transitions: res.Transitions,
		DedupHits: res.DedupHits, NextFrontier: local.frontier,
		DeadlineHit: local.deadline, Canceled: local.canceled,
		CkErr: local.ckErr, Violations: snapViolationsOf(own),
	}
	if len(local.chains) == 1 {
		sum.Chain = &local.chains[0]
	}
	_, sums, err := cl.exchange(nil, sum)
	if err != nil {
		return local, transportErr("cluster resolve at depth %d: %w", depth, err)
	}
	var g levelView
	checkpointed := sum.Chain != nil || sum.CkErr != ""
	for q := range sums {
		s := sum
		if q != cl.self {
			if s, err = parseResolve(sums[q], checkpointed); err != nil {
				return local, transportErr("cluster: resolve summary from peer %d at depth %d: %w", q, depth, err)
			}
		}
		g.distinct += s.Distinct
		g.frontier += s.NextFrontier
		// Detection happens at the owner and each state violates at most
		// once, so per-peer cumulative lists are disjoint.
		g.violations += len(s.Violations)
		g.deadline = g.deadline || s.DeadlineHit
		g.canceled = g.canceled || s.Canceled
		if g.ckErr == "" {
			g.ckErr = s.CkErr
		}
		if s.Chain != nil {
			g.chains = append(g.chains, *s.Chain)
		}
	}
	return g, nil
}

// final ends the run: the last barrier, from which every peer assembles the
// same global Result, then trace reconstruction. That needs parent edges from
// every shard, so the coordinator probes the other peers, which serve lookups
// until it says goodbye; their results carry the same violations without
// traces. Without a cluster own is already every violation and every edge is
// local.
func (cl *clusterCtx) final(c *Checker, res *Result, own []*Violation) *fatal {
	if cl != nil {
		fin := clusterFinal{
			Distinct: res.DistinctStates, Transitions: res.Transitions,
			DedupHits: res.DedupHits, MaxQueueLen: res.MaxQueueLen,
			Violations: snapViolationsOf(own), Cover: res.Cover,
		}
		_, sums, err := cl.exchange(nil, fin)
		if err != nil {
			return transportErr("cluster final barrier: %w", err)
		}
		for q := range sums {
			if q == cl.self {
				continue
			}
			f, err := parseFinal(sums[q])
			if err != nil {
				return transportErr("cluster final summary from peer %d: %w", q, err)
			}
			res.DistinctStates += f.Distinct
			res.Transitions += f.Transitions
			res.DedupHits += f.DedupHits
			// MaxQueueLen is summed: per-peer high-water marks are concurrent
			// structural measures with no meaningful global maximum; the sum
			// bounds the cluster's peak frontier footprint.
			res.MaxQueueLen += f.MaxQueueLen
			for _, v := range f.Violations {
				own = append(own, v.violation())
			}
			res.Cover.Merge(f.Cover)
		}
		sortViolations(own)
	}
	res.Violations = own
	if cl != nil && cl.self != 0 {
		err := cl.conn.ServeProbes(func(f uint64) (uint64, int32, bool) {
			e, ok := c.visited.Lookup(f)
			return e.Parent, e.Depth, ok
		})
		if err != nil && res.Err == nil {
			res.Err = fmt.Errorf("cluster probe service: %w", err)
		}
		return nil
	}
	for _, v := range res.Violations {
		v.Trace = c.reconstruct(v)
	}
	if cl != nil {
		if err := cl.conn.Bye(); err != nil && res.Err == nil {
			res.Err = fmt.Errorf("cluster shutdown: %w", err)
		}
	}
	return nil
}

// lookupEdge resolves a fingerprint's parent edge, probing the owning peer
// when the fingerprint is not local — the trace-reconstruction path of a
// distributed run (coordinator only; other peers answer via ServeProbes).
func (c *Checker) lookupEdge(f uint64) (fpset.Edge, bool) {
	if cl := c.cluster; !cl.owns(f) {
		parent, depth, ok, err := cl.conn.Probe(transport.Owner(f, cl.peers), f)
		if err != nil || !ok {
			return fpset.Edge{}, false
		}
		return fpset.Edge{Parent: parent, Depth: depth}, true
	}
	return c.visited.Lookup(f)
}

// expandChunkCluster is the cluster-mode worker loop: successors are scored
// against the local shard only when this peer owns them (a hit is an
// immediate dedup), a fingerprint the worker already buffered this level is a
// dedup too, and everything else is buffered for the level's exchange.
// Inserts never happen here, so Contains answers are stable for the whole
// level regardless of worker scheduling.
func (w *expandWorker) expandChunkCluster(entries []frontierEntry, depth int) {
	c := w.c
	cl := c.cluster
	out := &w.out
	for _, fe := range entries {
		w.buf = c.m.AppendNext(fe.state, w.buf[:0])
		out.work += int64(len(w.buf))
		for i, su := range w.buf {
			f, reduced := c.canonicalFPScratch(su.State, &w.osc)
			if reduced {
				w.wc.SymmetryHit()
			}
			owner := transport.Owner(f, cl.peers)
			if owner == cl.self && c.visited.Contains(f) || !w.seen.add(f) {
				out.dedup++
				w.wc.Observe(su.Event.Action, depth, false)
				continue
			}
			action, ok := cl.actionIdx[su.Event.Action]
			if !ok {
				out.badAction = true
				continue
			}
			cand := clusterCand{fp: f, parent: fe.fp, action: action, owner: int32(owner)}
			if owner == cl.self {
				cand.state = spec.Keep(w.buf, i)
			} else {
				at := len(w.slab)
				w.slab = c.m.AppendState(w.slab, su.State)
				cand.enc = w.slab[at:]
			}
			out.cands = append(out.cands, cand)
		}
	}
}

// fpSeen is a worker-private open-addressing set of fingerprints, emptied at
// every level seal. Slot value 0 means empty; fingerprint 0 has its own flag.
type fpSeen struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int
	zero  bool
}

// add inserts f and reports whether it was absent.
func (s *fpSeen) add(f uint64) bool {
	if f == 0 {
		had := s.zero
		s.zero = true
		return !had
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	if s.insert(f) {
		s.n++
		return true
	}
	return false
}

// insert places f (non-zero) unless present; the table must have room.
func (s *fpSeen) insert(f uint64) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the multiply spreads min-of-orbit fingerprints,
	// which are biased low, over the top bits the index is taken from.
	for i := (f * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = f
			return true
		case f:
			return false
		}
	}
}

func (s *fpSeen) grow() {
	old := s.slots
	size := max(1<<10, 2*len(old))
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, f := range old {
		if f != 0 {
			s.insert(f)
		}
	}
}

// reset empties the set, keeping its table for the next level.
func (s *fpSeen) reset() {
	clear(s.slots)
	s.n, s.zero = 0, false
}

// buildBlocks splits the (owner, fp)-sorted candidate list into the local
// share and one encoded wire block per remote owner.
func (cl *clusterCtx) buildBlocks(cands []clusterCand) ([][]byte, []clusterCand, error) {
	blocks := make([][]byte, cl.peers)
	var local []clusterCand
	var wire []transport.Candidate
	for i := 0; i < len(cands); {
		owner := cands[i].owner
		j := i + 1
		for j < len(cands) && cands[j].owner == owner {
			j++
		}
		if int(owner) == cl.self {
			local = cands[i:j]
		} else {
			wire = wire[:0]
			for k := i; k < j; k++ {
				wire = append(wire, transport.Candidate{
					FP: cands[k].fp, Parent: cands[k].parent, Action: cands[k].action,
					State: cands[k].enc,
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
	return blocks, local, nil
}

// mergeRun is one strictly fp-increasing run of a level's candidates for
// fingerprints this peer owns: its own (live states) or one peer's decoded
// block (encoded states). i is the head.
type mergeRun struct {
	own  []clusterCand
	wire []transport.Candidate
	i    int
}

// head returns the key of the run's next candidate, ok false once drained.
func (r *mergeRun) head() (fp, parent uint64, ok bool) {
	switch {
	case r.i < len(r.own):
		return r.own[r.i].fp, r.own[r.i].parent, true
	case r.i < len(r.wire):
		return r.wire[r.i].FP, r.wire[r.i].Parent, true
	}
	return 0, 0, false
}

// take consumes the head candidate: its action and either its live state or
// its encoding.
func (r *mergeRun) take() (action uint16, st spec.State, enc []byte) {
	i := r.i
	r.i++
	if r.own != nil {
		return r.own[i].action, r.own[i].state, nil
	}
	return r.wire[i].Action, nil, r.wire[i].State
}

// merge inserts the level's candidates for fingerprints this peer owns — its
// own run and every inbound block, each strictly increasing in fp — by a
// P-way merge: the least head fingerprint opens the next group and the
// least parent among the heads carrying it leads. The lead is inserted,
// every other member of the group is a dedup hit, and a fresh lead is
// decoded (if it came over the wire), invariant-checked and appended to
// next, in fp order.
func (cl *clusterCtx) merge(invs []spec.Invariant, depth int, local []clusterCand, in [][]byte, next []frontierEntry, viols []*Violation) ([]frontierEntry, []*Violation, error) {
	c, res := cl.c, cl.res
	runs := make([]mergeRun, cl.peers)
	runs[cl.self].own = local
	for q, payload := range in {
		if q == cl.self || len(payload) == 0 {
			continue
		}
		wcands, err := transport.DecodeWireBlock(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: block from peer %d at depth %d: %w", q, depth, err)
		}
		for i := range wcands {
			if int(wcands[i].Action) >= len(cl.actions) {
				return nil, nil, fmt.Errorf("cluster: candidate %#x from peer %d carries action index %d outside the shared table", wcands[i].FP, q, wcands[i].Action)
			}
		}
		runs[q].wire = wcands
	}
	cover := c.cover
	for {
		lead := -1
		var fp, parent uint64
		for q := range runs {
			if f, pa, ok := runs[q].head(); ok && (lead < 0 || f < fp || f == fp && pa < parent) {
				lead, fp, parent = q, f, pa
			}
		}
		if lead < 0 {
			return next, viols, nil
		}
		action, st, enc := runs[lead].take()
		fresh := c.visited.Insert(fp, parent, int32(depth))
		cover.Observe(cl.actions[action], depth, fresh)
		if fresh {
			res.DistinctStates++
			if st == nil {
				var rest []byte
				var derr error
				if st, rest, derr = c.m.DecodeState(enc); derr != nil {
					return nil, nil, fmt.Errorf("cluster: decode state %#x at depth %d: %w", fp, depth, derr)
				}
				if len(rest) != 0 {
					return nil, nil, fmt.Errorf("cluster: state %#x at depth %d: %d trailing bytes", fp, depth, len(rest))
				}
			}
			next = append(next, frontierEntry{state: st, fp: fp})
			if v := checkInvariants(invs, st, depth, fp); v != nil {
				viols = append(viols, v)
			}
		} else {
			res.DedupHits++
		}
		for q := range runs {
			if f, _, ok := runs[q].head(); ok && f == fp {
				a, _, _ := runs[q].take()
				res.DedupHits++
				cover.Observe(cl.actions[a], depth, false)
			}
		}
	}
}
