package explorer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// CheckpointOptions configures periodic exploration snapshots — the
// reproduction of TLC's checkpointing, which lets a machine-day-scale run
// survive interruption. The zero value disables checkpointing. Checkpointing
// needs states to round-trip through bytes, so the machine must implement
// spec.StateCodec (every in-tree system does); one that does not gets a
// "config-error" result.
//
// A snapshot is written at BFS level boundaries (where the frontier is
// well-defined and expansion workers are quiescent) whenever the cadence is
// due: every Interval of wall-clock time and/or every EveryStates newly
// discovered distinct states, whichever fires first (both zero with a Dir
// set defaults to a 60-second interval). A snapshot holds the run's
// counters, the frontier as codec-encoded states, and the fingerprint set,
// in a versioned, checksummed envelope written atomically (temp file +
// fsync + rename), so a crash mid-write never corrupts the previous one.
// After the first full snapshot, later checkpoints append delta blocks (see
// delta.go) until the log outgrows the base.
//
// Resume reloads the frontier states as written — no part of the explored
// interior is re-expanded — and proves the snapshot self-consistent before
// continuing: every frontier state must canonicalize to its recorded
// fingerprint and be in the fingerprint set at the snapshot's depth, and the
// set must hold no other state at that depth. BFS exploration is
// deterministic (see the package comment), so a resumed run reports the
// same distinct-state count and the same counterexample as an uninterrupted
// run with the same options.
type CheckpointOptions struct {
	// Dir is the snapshot directory ("" disables checkpointing). The
	// current snapshot is Dir/checkpoint.snap (distributed runs:
	// Dir/peer-<id>/cluster-<depth>.snap, committed by
	// Dir/cluster-manifest.json).
	Dir string
	// Interval is the minimum wall-clock time between snapshots.
	Interval time.Duration
	// EveryStates writes a snapshot every N newly discovered states.
	EveryStates int
	// Resume loads the committed checkpoint in Dir before exploring and
	// continues from it. A missing, corrupt, or incompatible snapshot fails
	// the run (Result.Err) rather than silently starting over.
	Resume bool
	// Label identifies the model for compatibility checking, e.g.
	// "system/config/budget/bugs". A snapshot written under one label
	// refuses to resume under a different non-empty label. Independently of
	// the label, resume verifies the machine name, the symmetry setting,
	// and a digest of the initial states.
	Label string
}

// newCadence builds the Due/Emit bookkeeping for the checkpoint cadence: an
// obs.Reporter with a no-op callback, used purely for its clock.
func (o *CheckpointOptions) newCadence() *obs.Reporter {
	interval := o.Interval
	if interval == 0 && o.EveryStates == 0 {
		interval = 60 * time.Second
	}
	return obs.NewReporter(func(obs.Progress) {}, interval, o.EveryStates)
}

// snapFile is the current snapshot name within CheckpointOptions.Dir.
const snapFile = "checkpoint.snap"

// snapMagic and snapVersion identify the envelope format, shared by base
// snapshots and per-peer cluster snapshots; the version also stamps commit
// records and cluster manifests. It bumps whenever the byte layout or header
// semantics change; other versions are rejected (re-run from scratch rather
// than risking a wrong resume). Version 2 stores the frontier as encoded
// states; version 1 stored fingerprints and rebuilt the states by replay.
const (
	snapMagic   = "SNDTBLCK"
	snapVersion = 2
)

// runIdentity is what has to match for persisted or remote state to belong
// to this run: snapshots, cluster manifests and peers' hello messages all
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

// snapshotHeader is the JSON head of a snapshot or delta block: the run
// identity plus every Result counter needed to continue.
type snapshotHeader struct {
	Version int `json:"version"`
	runIdentity
	// PeerID is the writing peer's index (cluster snapshots; Peers > 0).
	PeerID         int             `json:"peer_id,omitempty"`
	Depth          int             `json:"depth"`
	DistinctStates int             `json:"distinct_states"`
	Transitions    int64           `json:"transitions"`
	DedupHits      int64           `json:"dedup_hits"`
	MaxQueueLen    int             `json:"max_queue_len"`
	MaxDepth       int             `json:"max_depth"`
	GoalReached    bool            `json:"goal_reached"`
	ElapsedNs      int64           `json:"elapsed_ns"`
	Violations     []snapViolation `json:"violations,omitempty"`
}

// snapViolation is a violation in transit: persisted in snapshots (only
// relevant with StopAtFirstViolation off) and exchanged between cluster
// peers. The error survives as text.
type snapViolation struct {
	Invariant string `json:"invariant"`
	Error     string `json:"error"`
	Depth     int    `json:"depth"`
	FP        uint64 `json:"fp"`
}

// snapViolationsOf converts a run's violation list for a snapshot header or a
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

// header assembles the snapshot header for the level boundary at depth.
// own are the violations to persist: all of them in a single-process run,
// this peer's share in a cluster.
func (c *Checker) header(res *Result, depth int, elapsed time.Duration, own []*Violation) snapshotHeader {
	hdr := snapshotHeader{
		Version:        snapVersion,
		runIdentity:    c.ident,
		Depth:          depth,
		DistinctStates: res.DistinctStates,
		Transitions:    res.Transitions,
		DedupHits:      res.DedupHits,
		MaxQueueLen:    res.MaxQueueLen,
		MaxDepth:       res.MaxDepth,
		GoalReached:    res.GoalReached,
		ElapsedNs:      int64(elapsed),
		Violations:     snapViolationsOf(own),
	}
	if cl := c.cluster; cl != nil {
		hdr.PeerID = cl.self
	}
	return hdr
}

// restoreInto seeds a resumed run's result with the counters the snapshot
// recorded. Violations stay with the caller: a cluster peer restores only
// its own share.
func (h *snapshotHeader) restoreInto(res *Result, cover *obs.Cover) {
	res.Resumed = true
	res.DistinctStates = h.DistinctStates
	res.Transitions = h.Transitions
	res.DedupHits = h.DedupHits
	res.MaxQueueLen = h.MaxQueueLen
	res.MaxDepth = h.MaxDepth
	res.GoalReached = h.GoalReached
	if cover != nil {
		// Levels before the snapshot were profiled by the interrupted
		// session; this profile covers the continuation only.
		cover.ResumedAtDepth = h.Depth
	}
}

// snapshot is a parsed snapshot file. Its frontier section stays encoded, as
// a delta block's does: a resume folds the committed delta chain into header
// and section first, and restoreFrontier then decodes whichever frontier
// survived — once.
type snapshot struct {
	header        snapshotHeader
	frontierCount uint64
	frontierRecs  []byte
	// frontier is the decoded, verified level (set by restoreFrontier).
	frontier []frontierEntry
	set      *fpset.Set
	// crc and size identify the file as the base of a delta chain.
	crc  uint32
	size int64
}

// ckWriterWrap wraps every checkpoint writer (snapshot, delta append, commit
// record, manifest). Production leaves it as the identity; fault-injection
// tests swap it to simulate ENOSPC/partial writes.
var ckWriterWrap = func(w io.Writer) io.Writer { return w }

// atomicWrite produces path via temp file + fsync + rename, then
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
	if err := write(ckWriterWrap(tmp)); err != nil {
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
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// countingWriter tracks bytes written so the snapshot writer can report the
// file size without a Stat round trip.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeSnapshot is the one snapshot writer: it serialises the level boundary
// described by hdr — lf is the frontier awaiting expansion — into path
// atomically, returning the file size and trailing CRC (the identity delta
// commits refer to). Layout:
//
//	magic[8] version[u32] headerLen[u32] headerJSON
//	frontierCount[u64] frontier records (see frontier.go)
//	fpset stream (see fpset.WriteTo)
//	crc32[u32] of everything prior (IEEE)
func (c *Checker) writeSnapshot(path string, hdr snapshotHeader, lf *levelFrontier) (size int64, sum uint32, err error) {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return 0, 0, err
	}
	err = atomicWrite(path, func(dst io.Writer) error {
		crc := crc32.NewIEEE()
		cw := &countingWriter{w: io.MultiWriter(dst, crc)}
		bw := bufio.NewWriterSize(cw, 1<<16)
		head := append([]byte(nil), snapMagic...)
		head = binary.LittleEndian.AppendUint32(head, snapVersion)
		head = binary.LittleEndian.AppendUint32(head, uint32(len(hb)))
		head = append(head, hb...)
		head = binary.LittleEndian.AppendUint64(head, uint64(lf.size()))
		if _, err := bw.Write(head); err != nil {
			return err
		}
		if err := lf.writeRecords(bw, c.m); err != nil {
			return err
		}
		if _, err := c.visited.WriteTo(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		sum = crc.Sum32()
		_, err := dst.Write(binary.LittleEndian.AppendUint32(nil, sum))
		size = cw.n + 4
		return err
	})
	return size, sum, err
}

// readSnapshot is the one snapshot reader: it checks the envelope (length,
// checksum, magic, version), then the header against this run's identity,
// and only then delimits the frontier section and decodes the fingerprint
// set — a snapshot of a different model is refused by name, not by a codec
// error. raw is hostile: every count and length is bounded by the bytes that
// remain before anything is sized from it.
func (c *Checker) readSnapshot(path string, raw []byte) (*snapshot, error) {
	const fixed = len(snapMagic) + 4 + 4 // up to the header
	if len(raw) < fixed+8+4 {
		return nil, fmt.Errorf("%s: truncated snapshot (%d bytes)", path, len(raw))
	}
	body := raw[:len(raw)-4]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%s: checksum mismatch (snapshot corrupt)", path)
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%s: not a sandtable checkpoint", path)
	}
	if v := binary.LittleEndian.Uint32(body[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("%s: snapshot version %d, this build reads %d", path, v, snapVersion)
	}
	hlen := int64(binary.LittleEndian.Uint32(body[len(snapMagic)+4:]))
	body = body[fixed:]
	if hlen+8 > int64(len(body)) {
		return nil, fmt.Errorf("%s: truncated header", path)
	}
	snap := &snapshot{crc: sum, size: int64(len(raw))}
	if err := json.Unmarshal(body[:hlen], &snap.header); err != nil {
		return nil, fmt.Errorf("%s: header: %w", path, err)
	}
	if err := c.checkIdentity(path, snap.header.runIdentity); err != nil {
		return nil, err
	}
	snap.frontierCount = binary.LittleEndian.Uint64(body[hlen:])
	recs, rest, err := splitFrontierRecords(body[hlen+8:], snap.frontierCount)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	snap.frontierRecs = recs
	if snap.set, err = fpset.Read(bytes.NewReader(rest), 0); err != nil {
		return nil, fmt.Errorf("%s: fingerprint set: %w", path, err)
	}
	return snap, nil
}

// loadSnapshot reads the snapshot at path and installs its fingerprint set.
func (c *Checker) loadSnapshot(path string) (*snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := c.readSnapshot(path, raw)
	if err != nil {
		return nil, err
	}
	c.visited = snap.set
	return snap, nil
}

// restoreFrontier decodes the snapshot's frontier section, puts it into level
// order and proves it is the level boundary the header claims, against the
// installed fingerprint set: every state canonicalizes to its recorded
// fingerprint and was discovered at the header's depth, no fingerprint
// repeats, and the set holds nothing else at that depth. A snapshot that
// passes its checksum but fails here would otherwise resume into a silently
// wrong search.
func (c *Checker) restoreFrontier(snap *snapshot) error {
	frontier, err := readFrontier(snap.frontierRecs, snap.frontierCount, c.m)
	if err != nil {
		return err
	}
	snap.frontierRecs = nil // release the file bytes
	depth := snap.header.Depth
	sortFrontier(frontier)
	for i, fe := range frontier {
		if i > 0 && fe.fp == frontier[i-1].fp {
			return fmt.Errorf("frontier repeats state %#x", fe.fp)
		}
		if got := c.canonicalFP(fe.state); got != fe.fp {
			return fmt.Errorf("frontier state recorded as %#x canonicalizes to %#x", fe.fp, got)
		}
		if e, ok := c.visited.Lookup(fe.fp); !ok || int(e.Depth) != depth {
			return fmt.Errorf("frontier state %#x is not in the fingerprint set at depth %d", fe.fp, depth)
		}
	}
	c.countCanon(int64(len(frontier)))
	atDepth := 0
	if err := c.visited.RangeNewer(int32(depth-1), func(uint64, fpset.Edge) bool {
		atDepth++
		return true
	}); err != nil {
		return err
	}
	if atDepth != len(frontier) {
		return fmt.Errorf("fingerprint set holds %d states at depth %d, frontier has %d", atDepth, depth, len(frontier))
	}
	snap.frontier = frontier
	return nil
}

// resume loads the committed checkpoint. In a cluster that is this peer's
// shard at the manifest depth, with no chain. Otherwise it is
// Dir/checkpoint.snap with the committed delta chain (see delta.go) applied —
// each block adds the fingerprints discovered since the previous checkpoint
// and replaces the header and frontier with its own — and the frontier left
// standing decoded and verified, so a resume costs O(that frontier) state
// decodes however long the chain. It returns the chain so the run's
// checkpointer keeps appending to it instead of rewriting the base.
func (c *Checker) resume() (*snapshot, *ckChain, error) {
	if c.cluster != nil {
		snap, err := c.loadClusterSnapshot()
		return snap, nil, err
	}
	dir := c.opts.Checkpoint.Dir
	path := filepath.Join(dir, snapFile)
	snap, err := c.loadSnapshot(path)
	if err != nil {
		return nil, nil, err
	}
	blocks, commit, err := loadDeltaChain(dir, snap.crc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	chain := &ckChain{baseCRC: snap.crc, baseBytes: snap.size}
	if commit != nil {
		chain.deltaBytes, chain.deltaCount = commit.DeltaBytes, commit.Deltas
	}
	for i := range blocks {
		snap.set.InsertRecords(blocks[i].recs)
	}
	if n := len(blocks); n > 0 {
		last := blocks[n-1]
		snap.header, snap.frontierCount, snap.frontierRecs = last.header, last.frontierCount, last.frontierRecs
		path = filepath.Join(dir, deltaFile)
	}
	chain.depth = snap.header.Depth
	if err := c.restoreFrontier(snap); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, chain, nil
}

// ckChain is a committed checkpoint chain: the base snapshot's identity plus
// the delta log appended to it.
type ckChain struct {
	baseCRC    uint32
	baseBytes  int64
	deltaBytes int64
	deltaCount int
	// depth is the level the last committed checkpoint covers; the next
	// delta carries fingerprint-set entries with Depth in (depth, new depth].
	depth int
}

// checkpointer holds the snapshot cadence and does the writing, for both
// kinds of run. Single-process: a full snapshot when there is no base yet or
// the delta log has outgrown the base (compaction: fresh base, chain reset),
// an appended delta block otherwise. Cluster: a depth-stamped full snapshot
// of this peer's shard, committed by the coordinator's manifest (see
// cluster_checkpoint.go). dir == "" is checkpointing disabled.
type checkpointer struct {
	dir     string
	cadence *obs.Reporter
	// warn is the run's user-facing progress reporter; checkpoint failures
	// surface there as warnings instead of aborting the run.
	warn    *obs.Reporter
	metrics *runMetrics
	tracer  *obs.Tracer
	// chain is nil until a full snapshot has been written or a resume
	// adopted one (always nil in a cluster).
	chain *ckChain
}

// due reports whether the cadence asks for a snapshot at a global distinct
// count of distinct.
func (ck *checkpointer) due(distinct int) bool {
	return ck.dir != "" && ck.cadence.Due(distinct)
}

// write snapshots the level boundary at depth and returns the failure text
// ("" on success). Failures do not abort the exploration: the previous
// committed checkpoint stays valid, the error is recorded as a trace event
// plus a checkpoint.errors tick, and a warning reaches the progress reporter.
func (ck *checkpointer) write(c *Checker, res *Result, depth int, lf *levelFrontier, own []*Violation, elapsed time.Duration) string {
	stop := c.opts.Metrics.StartPhase("checkpoint")
	hdr := c.header(res, depth, elapsed, own)
	kind := "full"
	var err error
	switch ch := ck.chain; {
	case ck.dir == "":
		err = errors.New("checkpoint requested by coordinator but this peer has no checkpoint dir")
	case c.cluster != nil:
		_, _, err = c.writeSnapshot(clusterSnapPath(ck.dir, c.cluster.self, depth), hdr, lf)
	case ch == nil || ch.deltaBytes > ch.baseBytes:
		var size int64
		var crc uint32
		if size, crc, err = c.writeSnapshot(filepath.Join(ck.dir, snapFile), hdr, lf); err == nil {
			// Retire the old chain. If a crash lands between the snapshot
			// rename and these removes, the stale chain's base CRC no
			// longer matches and resume ignores it.
			os.Remove(filepath.Join(ck.dir, commitFile))
			os.Remove(filepath.Join(ck.dir, deltaFile))
			if ch != nil && ck.metrics != nil {
				ck.metrics.ckCompactions.Inc()
			}
			ck.chain = &ckChain{baseCRC: crc, baseBytes: size, depth: depth}
		}
	default:
		kind = "delta"
		var blockLen int64
		if blockLen, err = ck.appendDelta(c, hdr, lf); err == nil {
			ch.deltaBytes += blockLen
			ch.deltaCount++
			ch.depth = depth
			if ck.metrics != nil {
				ck.metrics.ckDeltas.Inc()
				ck.metrics.ckDeltaBytes.Add(blockLen)
			}
		}
	}
	stop()
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
		if ck.metrics != nil {
			ck.metrics.ckErrors.Inc()
		}
		ck.warn.Warnf("checkpoint failed (previous checkpoint still valid): %v", err)
	}
	ck.tracer.Emit(obs.Event{Layer: "spec", Kind: "checkpoint", Node: -1, Detail: detail})
	return msg
}

// settle closes a checkpoint attempt once the level is resolved. It counts
// only if every peer's snapshot succeeded (g.ckErr; a solo run is its own
// only peer), which is also when a coordinator commits the cluster
// checkpoint with its manifest; the cadence restarts either way.
func (ck *checkpointer) settle(c *Checker, res *Result, depth int, g levelView) {
	if g.ckErr == "" {
		res.Checkpoints++
		if ck.metrics != nil {
			ck.metrics.checkpoints.Inc()
		}
		if cl := c.cluster; cl != nil && cl.self == 0 {
			if err := c.writeClusterManifest(depth); err != nil {
				ck.warn.Warnf("cluster manifest write failed at depth %d: %v", depth, err)
			} else {
				cl.pruneBelow = depth
			}
		}
	}
	ck.cadence.Emit(obs.Progress{DistinctStates: g.distinct})
}
