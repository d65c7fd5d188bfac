package explorer

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// CheckpointOptions configures periodic exploration snapshots — the
// reproduction of TLC's checkpointing, which lets a machine-day-scale run
// survive interruption. The zero value disables checkpointing. States cross
// to disk through the machine's codec, which every spec.Machine provides.
//
// A checkpoint is written at BFS level boundaries (where the frontier is
// well-defined and expansion workers are quiescent) whenever the cadence is
// due: every Interval of wall-clock time and/or every EveryStates newly
// discovered distinct states, whichever fires first (both zero with a Dir
// set defaults to a 60-second interval). It holds the run's counters, the
// frontier as codec-encoded states, and the fingerprint set — one block
// appended to the peer's chain log (delta.go), the first block of a log
// holding the whole set — and commits through one manifest, for solo and
// distributed runs alike ("The commit protocol").
//
// Resume reloads the frontier states as written — no part of the explored
// interior is re-expanded — and proves the checkpoint self-consistent before
// continuing: every frontier state must canonicalize to its recorded
// fingerprint and be in the fingerprint set at the checkpoint's depth, and the
// set must hold no other state at that depth. BFS exploration is
// deterministic (see the package comment), so a resumed run reports the
// same distinct-state count and the same counterexample as an uninterrupted
// run with the same options.
type CheckpointOptions struct {
	// Dir is the checkpoint directory ("" disables checkpointing), local to
	// each process: its chain (a cluster peer's in Dir/peer-<id>) and, on the
	// coordinator, the manifest Dir/checkpoint.manifest.
	Dir string
	// Interval is the minimum wall-clock time between snapshots.
	Interval time.Duration
	// EveryStates writes a snapshot every N newly discovered states.
	EveryStates int
	// Resume loads the committed checkpoint in Dir before exploring and
	// continues from it. A missing, corrupt, or incompatible checkpoint fails
	// the run (Result.Err) rather than silently starting over.
	Resume bool
	// Label identifies the model for compatibility checking, e.g.
	// "system/config/budget/bugs". A snapshot written under one label
	// refuses to resume under a different non-empty label. Independently of
	// the label, resume verifies the machine name, the symmetry setting,
	// and a digest of the initial states.
	Label string
}

// defaultCheckpointInterval is the checkpoint cadence when neither
// Interval nor EveryStates is set.
const defaultCheckpointInterval = 60 * time.Second

// cadence decides when the next checkpoint is due: once Interval of
// wall-clock time or EveryStates newly discovered distinct states have
// passed since the last attempt, whichever comes first.
type cadence struct {
	interval    time.Duration
	everyStates int
	now         func() time.Time
	last        time.Time
	lastStates  int
}

// newCadence starts o's cadence at now(), with the distinct count at zero.
func newCadence(o CheckpointOptions, now func() time.Time) *cadence {
	cd := &cadence{interval: o.Interval, everyStates: o.EveryStates, now: now, last: now()}
	if cd.interval == 0 && cd.everyStates == 0 {
		cd.interval = defaultCheckpointInterval
	}
	return cd
}

// due reports whether a checkpoint is due at a distinct count of distinct.
func (cd *cadence) due(distinct int) bool {
	if cd.everyStates > 0 && distinct-cd.lastStates >= cd.everyStates {
		return true
	}
	return cd.interval > 0 && cd.now().Sub(cd.last) >= cd.interval
}

// restart begins the next period now, at a distinct count of distinct.
func (cd *cadence) restart(distinct int) {
	cd.last, cd.lastStates = cd.now(), distinct
}

// snapVersion identifies the checkpoint format, which every block header and
// manifest carries. It bumps whenever the bytes, the files or the commit
// protocol change; other versions are rejected. Version 5 encodes a
// Raft-family state as its record; version 4 kept a chain as one log of
// blocks, its states encoded field by field; version 3 kept a base snapshot
// and a delta log beside it; version 2 had a commit record per directory and
// full per-peer cluster snapshots; version 1 rebuilt the frontier by replay.
const snapVersion = 5

// runIdentity is what has to match for persisted or remote state to belong
// to this run: checkpoint blocks, manifests and peers' hello messages all
// carry one.
type runIdentity struct {
	Label      string `json:"label,omitempty"`
	Machine    string `json:"machine"`
	Symmetry   bool   `json:"symmetry"`
	InitDigest uint64 `json:"init_digest"`
	// Peers and Partition are the cluster shape; zero in single-process runs.
	Peers     int `json:"peers,omitempty"`
	Partition int `json:"partition_version,omitempty"`
}

// identity computes this run's identity. The init digest fingerprints the
// machine's initial states so a different configuration, budget, or defect
// set is caught even when the label matches; XOR of per-state hashes makes
// it independent of Init's order.
func (c *Checker) identity() runIdentity {
	id := runIdentity{Label: c.opts.Checkpoint.Label, Machine: c.m.Name(), Symmetry: c.ptab != nil}
	h := fp.New()
	for _, s := range c.m.Init() {
		h.Reset()
		h.WriteUint64(c.canonicalFP(s))
		id.InitDigest ^= h.Sum()
	}
	if cl := c.cluster; cl != nil {
		id.Peers, id.Partition = cl.peers, transport.PartitionVersion
	}
	return id
}

// checkIdentity refuses state at path written under a different identity.
// An empty label on either side matches any label.
func (c *Checker) checkIdentity(path string, got runIdentity) error {
	want := c.ident
	switch {
	case got.Machine != want.Machine:
		return fmt.Errorf("%s: checkpoint is for machine %q, this run checks %q", path, got.Machine, want.Machine)
	case got.Symmetry != want.Symmetry:
		return fmt.Errorf("%s: checkpoint symmetry=%v, this run uses %v", path, got.Symmetry, want.Symmetry)
	case want.Label != "" && got.Label != "" && want.Label != got.Label:
		return fmt.Errorf("%s: checkpoint label %q, this run is %q", path, got.Label, want.Label)
	case got.InitDigest != want.InitDigest:
		return fmt.Errorf("%s: initial-state digest mismatch (different config, budget, or defect set)", path)
	case got.Peers != want.Peers:
		return fmt.Errorf("%s: checkpoint is for %d peers, this run has %d (0 = single process; repartitioning is not supported)", path, got.Peers, want.Peers)
	case got.Partition != want.Partition:
		return fmt.Errorf("%s: checkpoint partition version %d, this build uses %d", path, got.Partition, want.Partition)
	}
	return nil
}

// blockHeader is the JSON head of a checkpoint block: the run identity plus
// every Result counter needed to continue.
type blockHeader struct {
	Version int `json:"version"`
	runIdentity
	// PeerID is the writing peer's index (cluster checkpoints; Peers > 0).
	PeerID         int             `json:"peer_id,omitempty"`
	Depth          int             `json:"depth"`
	DistinctStates int             `json:"distinct_states"`
	Transitions    int64           `json:"transitions"`
	DedupHits      int64           `json:"dedup_hits"`
	MaxQueueLen    int             `json:"max_queue_len"`
	MaxDepth       int             `json:"max_depth"`
	ElapsedNs      int64           `json:"elapsed_ns"`
	Violations     []snapViolation `json:"violations,omitempty"`
}

// snapViolation is a violation in transit: persisted in checkpoints (only
// relevant with StopAtFirstViolation off) and exchanged between cluster
// peers. The error survives as text.
type snapViolation struct {
	Invariant string `json:"invariant"`
	Error     string `json:"error"`
	Depth     int    `json:"depth"`
	FP        uint64 `json:"fp"`
}

// snapViolationsOf converts a run's violation list for a block header or a
// barrier summary.
func snapViolationsOf(vs []*Violation) []snapViolation {
	out := make([]snapViolation, len(vs))
	for i, v := range vs {
		out[i] = snapViolation{Invariant: v.Invariant, Error: v.Err.Error(), Depth: v.Depth, FP: v.fp}
	}
	return out
}

func (v snapViolation) violation() *Violation {
	return &Violation{Invariant: v.Invariant, Err: errors.New(v.Error), Depth: v.Depth, fp: v.FP}
}

// header assembles the block header for the level boundary at depth. own
// are the violations to persist: all of them in a single-process run, this
// peer's share in a cluster.
func (c *Checker) header(res *Result, depth int, elapsed time.Duration, own []*Violation) blockHeader {
	hdr := blockHeader{
		Version:        snapVersion,
		runIdentity:    c.ident,
		Depth:          depth,
		DistinctStates: res.DistinctStates,
		Transitions:    res.Transitions,
		DedupHits:      res.DedupHits,
		MaxQueueLen:    res.MaxQueueLen,
		MaxDepth:       res.MaxDepth,
		ElapsedNs:      int64(elapsed),
		Violations:     snapViolationsOf(own),
	}
	if cl := c.cluster; cl != nil {
		hdr.PeerID = cl.self
	}
	return hdr
}

// restoreInto seeds a resumed run's result with the counters the checkpoint
// recorded. Violations stay with the caller: a cluster peer restores only
// its own share.
func (h *blockHeader) restoreInto(res *Result, cover *obs.Cover) {
	res.Resumed = true
	res.DistinctStates = h.DistinctStates
	res.Transitions = h.Transitions
	res.DedupHits = h.DedupHits
	res.MaxQueueLen = h.MaxQueueLen
	res.MaxDepth = h.MaxDepth
	if cover != nil {
		// Levels before the checkpoint were profiled by the interrupted
		// session; this profile covers the continuation only.
		cover.ResumedAtDepth = h.Depth
	}
}

// ckWriterWrap wraps the file a chain block (the prepare phase) or a
// frontier spill run is written through. Production leaves it as the
// identity; fault-injection tests swap it to simulate ENOSPC, short writes
// and I/O errors.
var ckWriterWrap = func(w io.Writer) io.Writer { return w }

// atomicWrite produces path (the manifest) via temp file + fsync + rename, then
// best-effort fsyncs the directory so the rename itself is durable: a crash
// or failed write never leaves a torn file under the final name.
func atomicWrite(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "ck-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name()) // no-op after successful rename
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir best-effort fsyncs dir, making the names created in it durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// countingWriter tracks bytes written so the block writer can report the
// payload length without a Stat round trip.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// restoreFrontier decodes blk's frontier section, puts it into level order
// and proves it is the level boundary the header claims, against the
// installed fingerprint set: every state canonicalizes to its recorded
// fingerprint and was discovered at the header's depth, no fingerprint
// repeats, and the set holds nothing else at that depth. A block that passes
// its checksum but fails here would otherwise resume into a silently wrong
// search.
func (c *Checker) restoreFrontier(blk *ckBlock) ([]frontierEntry, error) {
	frontier, err := readFrontier(blk.frontierRecs, blk.frontierCount, c.m)
	if err != nil {
		return nil, err
	}
	depth := blk.header.Depth
	sortFrontier(frontier)
	for i, fe := range frontier {
		if i > 0 && fe.fp == frontier[i-1].fp {
			return nil, fmt.Errorf("frontier repeats state %#x", fe.fp)
		}
		if got := c.canonicalFP(fe.state); got != fe.fp {
			return nil, fmt.Errorf("frontier state recorded as %#x canonicalizes to %#x", fe.fp, got)
		}
		if e, ok := c.visited.Lookup(fe.fp); !ok || int(e.Depth) != depth {
			return nil, fmt.Errorf("frontier state %#x is not in the fingerprint set at depth %d", fe.fp, depth)
		}
	}
	c.countCanon(int64(len(frontier)))
	atDepth := 0
	if err := c.visited.RangeNewer(int32(depth-1), func(uint64, fpset.Edge) bool {
		atDepth++
		return true
	}); err != nil {
		return nil, err
	}
	if atDepth != len(frontier) {
		return nil, fmt.Errorf("fingerprint set holds %d states at depth %d, frontier has %d", atDepth, depth, len(frontier))
	}
	return frontier, nil
}

// The commit protocol, one for every run: a solo run is a one-peer cluster
// acting as its own coordinator. Each peer keeps one chain in its directory
// (Dir, or Dir/peer-<id>): one log of blocks (delta.go). A checkpoint is
// prepared — every peer appends a block to its log, or starts a new log with
// a first block (it has none, or its later blocks outgrew the first), and
// fsyncs it, and the directory too when the log is new — then committed:
// once resolve shows every peer prepared, the coordinator renames one
// manifest into Dir naming the depth and each peer's chain position.
// Garbage is any chain file the manifest does not name (a superseded or
// uncommitted log, an earlier run's chain); a peer deletes it after each
// commit it learns of and at resume. A log's name carries its first block's
// depth and the run's nonce, and a log only grows past its committed length,
// so a crash anywhere leaves the last manifest and every byte it names
// intact. Resume runs backwards: the coordinator reads the manifest, hello
// hands it to every peer, and each loads its own entry.

// ManifestFile is the commit record in CheckpointOptions.Dir: a directory
// holds a resumable checkpoint exactly when it holds this file.
const ManifestFile = "checkpoint.manifest"

// manifest is the content of ManifestFile: the one depth the run may resume
// from and every peer's chain at it.
type manifest struct {
	Version int `json:"version"`
	runIdentity
	Depth int `json:"depth"`
	// Chains holds one position per peer, by peer id (one in a solo run).
	Chains []chainPos `json:"chains"`
}

// chainPos is one peer's committed chain: its log, and how many bytes and
// blocks of it.
type chainPos struct {
	Log    string `json:"log"`
	Bytes  int64  `json:"bytes"`
	Blocks int    `json:"blocks"`
}

// chainFile matches the names of chain logs, the only files a peer ever
// deletes: chain-<first block's depth>-<run nonce>.log.
var chainFile = regexp.MustCompile(`^chain-[0-9]+-[0-9a-f]{16}\.log$`)

// parseManifest is the one manifest reader, for the coordinator's file and
// for the copy every other peer receives at hello. raw is hostile: the
// manifest must be this version and this run's, with one position per peer,
// each naming a log by plain file name and at least one block.
func (c *Checker) parseManifest(path string, raw []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.Version != snapVersion {
		return nil, fmt.Errorf("%s: checkpoint format version %d, this build reads %d", path, m.Version, snapVersion)
	}
	if err := c.checkIdentity(path, m.runIdentity); err != nil {
		return nil, err
	}
	if want := max(1, m.Peers); len(m.Chains) != want {
		return nil, fmt.Errorf("%s: %d chain positions for %d peers", path, len(m.Chains), want)
	}
	for i, p := range m.Chains {
		if !chainFile.MatchString(p.Log) || p.Bytes <= 0 || p.Blocks <= 0 {
			return nil, fmt.Errorf("%s: peer %d: bad chain position %+v", path, i, p)
		}
	}
	return &m, nil
}

// resumeManifest reads the committed manifest when this process resumes as
// the coordinator, and is nil otherwise.
func (c *Checker) resumeManifest() (*manifest, error) {
	if !c.opts.Checkpoint.Resume || !c.cluster.coordinator() {
		return nil, nil
	}
	path := filepath.Join(c.opts.Checkpoint.Dir, ManifestFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w (checkpoint format version %d commits through %s; a directory written in an earlier format cannot be resumed)", err, snapVersion, ManifestFile)
	}
	if err != nil {
		return nil, err
	}
	return c.parseManifest(path, raw)
}

// writeManifest commits the checkpoint at depth, chains holding every peer's
// prepared position.
func (c *Checker) writeManifest(depth int, chains []chainPos) error {
	raw, err := json.MarshalIndent(manifest{Version: snapVersion, runIdentity: c.ident, Depth: depth, Chains: chains}, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(c.opts.Checkpoint.Dir, ManifestFile), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// ckChain is this peer's chain as far as it has prepared: between a write
// and its commit it runs one checkpoint ahead of the manifest.
type ckChain struct {
	chainPos
	// first is the length of the log's first block.
	first int64
	// depth is the level the log's last block covers; the next block carries
	// fingerprint-set entries with Depth in (depth, new depth].
	depth int
}

// checkpointer holds the cadence and this peer's chain, and writes, commits,
// collects and loads — the same for every run.
type checkpointer struct {
	// dir holds this peer's chain ("" = checkpointing disabled); peer is its
	// index in the manifest.
	dir  string
	peer int
	// nonce makes this run's log names unlike any earlier run's.
	nonce   string
	cadence *cadence
	// warn is the run's user-facing progress reporter; checkpoint failures
	// surface there as warnings instead of aborting the run.
	warn    *obs.Reporter
	metrics *runMetrics
	tracer  *obs.Tracer
	// chain is nil until a first block has been written or a resume adopted
	// a log.
	chain *ckChain
	// commit is the depth of the last commit this peer has acted on.
	commit int
}

// newCheckpointer places this peer's chain: Dir for a solo run, Dir/peer-<id>
// for a cluster peer.
func (c *Checker) newCheckpointer(warn *obs.Reporter, metrics *runMetrics) *checkpointer {
	o := c.opts.Checkpoint
	ck := &checkpointer{dir: o.Dir, cadence: newCadence(o, time.Now), warn: warn, metrics: metrics, tracer: c.opts.Tracer}
	if cl := c.cluster; cl != nil && o.Dir != "" {
		ck.dir, ck.peer = filepath.Join(o.Dir, fmt.Sprintf("peer-%d", cl.self)), cl.self
	}
	var nonce [8]byte
	rand.Read(nonce[:]) // crypto/rand never returns an error (it crashes instead) since Go 1.24
	ck.nonce = hex.EncodeToString(nonce[:])
	return ck
}

// due reports whether the cadence asks for a checkpoint at a global distinct
// count of distinct.
func (ck *checkpointer) due(distinct int) bool {
	return ck.dir != "" && ck.cadence.due(distinct)
}

// write prepares this peer's checkpoint of the level boundary at depth — the
// first block of a new log when there is no chain yet or the log's later
// blocks have outgrown its first (compaction), the next block of the log
// otherwise — and returns the failure text ("" on success). Failures do not
// abort the exploration: the committed checkpoint stays valid, the error is
// recorded as a trace event plus a checkpoint.errors tick, and a warning
// reaches the progress reporter. A new log stays on disk beside the one it
// replaces until a manifest naming it commits.
func (ck *checkpointer) write(c *Checker, res *Result, depth int, lf *levelFrontier, own []*Violation, elapsed time.Duration) string {
	stop := c.opts.Metrics.StartPhase("checkpoint")
	ch := ck.chain
	full := ch == nil || ch.Bytes-ch.first > ch.first
	next, minDepth, kind := ckChain{}, -1, "full"
	if full {
		next.Log = fmt.Sprintf("chain-%06d-%s.log", depth, ck.nonce)
	} else {
		next, minDepth, kind = *ch, ch.depth, "delta"
	}
	n, err := c.writeBlock(filepath.Join(ck.dir, next.Log), next.Bytes, c.header(res, depth, elapsed, own), lf, minDepth)
	stop()
	if err == nil {
		if full {
			next.first = n
		}
		next.Bytes += n
		next.Blocks++
		next.depth = depth
		ck.chain = &next
		switch m := ck.metrics; {
		case m != nil && !full:
			m.ckDeltas.Inc()
			m.ckDeltaBytes.Add(n)
		case m != nil && ch != nil:
			m.ckCompactions.Inc()
		}
	}
	detail := map[string]string{
		"kind":     kind,
		"depth":    fmt.Sprint(depth),
		"distinct": fmt.Sprint(res.DistinctStates),
		"frontier": fmt.Sprint(lf.size()),
	}
	msg := ""
	if err != nil {
		msg = err.Error()
		detail["error"] = msg
		ck.failed(err)
	}
	ck.tracer.Emit(obs.Event{Layer: "spec", Kind: "checkpoint", Node: -1, Detail: detail})
	return msg
}

// failed counts and reports a checkpoint that did not land.
func (ck *checkpointer) failed(err error) {
	if ck.metrics != nil {
		ck.metrics.ckErrors.Inc()
	}
	ck.warn.Warnf("checkpoint failed (previous checkpoint still valid): %v", err)
}

// settle closes a checkpoint attempt once the level is resolved. If every
// peer prepared (g.ckErr empty; a solo run is its own only peer), the
// coordinator commits the manifest naming g.chains and collects its own
// garbage; the other peers learn of the commit at the next data barrier.
// The checkpoint counts if every peer prepared and, on the coordinator, the
// manifest landed. The cadence restarts either way.
func (ck *checkpointer) settle(c *Checker, res *Result, depth int, g levelView) {
	ok := g.ckErr == ""
	if ok && c.cluster.coordinator() {
		if err := c.writeManifest(depth, g.chains); err != nil {
			ok = false
			ck.failed(fmt.Errorf("manifest at depth %d: %w", depth, err))
		} else {
			ck.committed(depth)
		}
	}
	if ok {
		res.Checkpoints++
		if ck.metrics != nil {
			ck.metrics.checkpoints.Inc()
		}
	}
	ck.cadence.restart(g.distinct)
}

// committed acts on a manifest committed at depth: if it names this peer's
// chain as it stands, every other chain file in the peer's directory is
// garbage.
func (ck *checkpointer) committed(depth int) {
	if ch := ck.chain; ch != nil && depth > ck.commit && ch.depth == depth {
		ck.commit = depth
		collect(ck.dir, ch.Log)
	}
}

// collect deletes every chain file in dir except log. Nothing outside the
// chain-file pattern is touched (the manifest, temp files, spill
// directories). Best-effort: a leftover is wasted disk, never a wrong resume.
func collect(dir, log string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if n := e.Name(); e.Type().IsRegular() && chainFile.MatchString(n) && n != log {
			os.Remove(filepath.Join(dir, n))
		}
	}
}

// load resumes this peer from its position in the committed manifest m, in
// one loop over its log: the log is cut to the committed bytes, every block
// is checked and its fingerprint-set records inserted (readLog), and the
// last block — which must be the manifest's depth — has its frontier decoded
// and verified, so a resume costs O(that frontier) state decodes however
// long the log. The checkpointer adopts the log and keeps appending to it;
// every other chain file goes.
func (ck *checkpointer) load(c *Checker, m *manifest) (*blockHeader, []frontierEntry, error) {
	pos := m.Chains[ck.peer]
	path := filepath.Join(ck.dir, pos.Log)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	// Bytes past the committed length — a torn append, a block never
	// committed — go, so later appends start clean; committed bytes that are
	// missing or fail validation fail the resume loudly rather than silently
	// losing progress.
	if int64(len(raw)) < pos.Bytes {
		return nil, nil, fmt.Errorf("%s: %d bytes committed, the log holds %d (log truncated)", path, pos.Bytes, len(raw))
	}
	if int64(len(raw)) > pos.Bytes {
		if err := os.Truncate(path, pos.Bytes); err != nil {
			return nil, nil, fmt.Errorf("%s: truncating uncommitted tail: %w", path, err)
		}
		raw = raw[:pos.Bytes]
	}
	blocks, err := c.readLog(path, raw, ck.peer)
	if err != nil {
		return nil, nil, err
	}
	if len(blocks) != pos.Blocks {
		return nil, nil, fmt.Errorf("%s: %d blocks committed, %d found", path, pos.Blocks, len(blocks))
	}
	last := &blocks[len(blocks)-1]
	if last.header.Depth != m.Depth {
		return nil, nil, fmt.Errorf("%s: checkpoint at depth %d, manifest committed %d", path, last.header.Depth, m.Depth)
	}
	frontier, err := c.restoreFrontier(last)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	ck.chain = &ckChain{chainPos: pos, first: blocks[0].size, depth: m.Depth}
	ck.commit = m.Depth
	collect(ck.dir, pos.Log)
	hdr := last.header // a copy: the blocks, and the log bytes they slice, go
	return &hdr, frontier, nil
}
