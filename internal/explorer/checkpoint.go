package explorer

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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
// frontier as codec-encoded states, and the fingerprint set — a base
// snapshot, then delta blocks beside it (delta.go) — and commits through one
// manifest, for solo and distributed runs alike ("The commit protocol").
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

// snapMagic and snapVersion identify the checkpoint format, whose version
// snapshots, delta blocks and manifests carry. It bumps whenever the bytes,
// the files or the commit protocol change; other versions are rejected.
// Version 3 commits every peer's chain through one manifest; version 2 had a
// commit record per directory and full per-peer cluster snapshots; version 1
// rebuilt the frontier by replay.
const (
	snapMagic   = "SNDTBLCK"
	snapVersion = 3
)

// runIdentity is what has to match for persisted or remote state to belong
// to this run: snapshots, manifests and peers' hello messages all carry one.
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
	// size is the file's length, which the chain compares its log against.
	size int64
}

// ckWriterWrap wraps every writer of the prepare phase (base snapshot, delta
// append). Production leaves it as the identity; fault-injection tests swap
// it to simulate ENOSPC/partial writes.
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
// atomically, returning the file size. Layout:
//
//	magic[8] version[u32] headerLen[u32] headerJSON
//	frontierCount[u64] frontier records (see frontier.go)
//	fpset stream (see fpset.WriteTo)
//	crc32[u32] of everything prior (IEEE)
func (c *Checker) writeSnapshot(path string, hdr snapshotHeader, lf *levelFrontier) (size int64, err error) {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	err = atomicWrite(path, func(f io.Writer) error {
		dst := ckWriterWrap(f)
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
		_, err := dst.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		size = cw.n + 4
		return err
	})
	return size, err
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
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		return nil, fmt.Errorf("%s: checksum mismatch (snapshot corrupt)", path)
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%s: not a sandtable checkpoint", path)
	}
	if v := binary.LittleEndian.Uint32(body[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("%s: checkpoint format version %d, this build reads %d", path, v, snapVersion)
	}
	hlen := int64(binary.LittleEndian.Uint32(body[len(snapMagic)+4:]))
	body = body[fixed:]
	if hlen+8 > int64(len(body)) {
		return nil, fmt.Errorf("%s: truncated header", path)
	}
	snap := &snapshot{size: int64(len(raw))}
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

// The commit protocol, one for every run: a solo run is a one-peer cluster
// acting as its own coordinator. Each peer keeps one chain in its directory
// (Dir, or Dir/peer-<id>): a base snapshot and the delta log beside it. A
// checkpoint is prepared — every peer writes a new base (it has none, or its
// log outgrew the base) or appends a block, and fsyncs it — then committed:
// once resolve shows every peer prepared, the coordinator renames one
// manifest into Dir naming the depth and each peer's chain position.
// Garbage is any chain file the manifest does not name (a superseded or
// uncommitted base, an uncommitted block, an earlier run's chain); a peer
// deletes it after each commit it learns of and at resume. A base is never
// rewritten (its name carries its depth and the run's nonce) and a log only
// grows past its committed length, so a crash anywhere leaves the last
// manifest and every byte it names intact. Resume runs backwards: the
// coordinator reads the manifest, hello hands it to every peer, and each
// loads its own entry.

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

// chainPos is one peer's committed chain: its base snapshot, and how much of
// the delta log beside it.
type chainPos struct {
	Base       string `json:"base"`
	DeltaBytes int64  `json:"delta_bytes"`
	Deltas     int    `json:"deltas"`
}

// chainFile matches the names of chain files, the only files a peer ever
// deletes: chain-<depth>-<run nonce>.snap for a base, .delta for its log.
var chainFile = regexp.MustCompile(`^chain-[0-9]+-[0-9a-f]{16}\.(snap|delta)$`)

// deltaName is the delta log beside base.
func deltaName(base string) string {
	return strings.TrimSuffix(base, ".snap") + ".delta"
}

// parseManifest is the one manifest reader, for the coordinator's file and
// for the copy every other peer receives at hello. raw is hostile: the
// manifest must be this version and this run's, with one position per peer,
// each naming a base by plain file name and no negative length or count.
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
		if !chainFile.MatchString(p.Base) || !strings.HasSuffix(p.Base, ".snap") || p.DeltaBytes < 0 || p.Deltas < 0 {
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
	baseBytes int64
	// depth is the level the chain's last write covers; the next delta
	// carries fingerprint-set entries with Depth in (depth, new depth].
	depth int
}

// checkpointer holds the cadence and this peer's chain, and writes, commits,
// collects and loads — the same for every run.
type checkpointer struct {
	// dir holds this peer's chain ("" = checkpointing disabled); peer is its
	// index in the manifest.
	dir  string
	peer int
	// nonce makes this run's base names unlike any earlier run's.
	nonce   string
	cadence *cadence
	// warn is the run's user-facing progress reporter; checkpoint failures
	// surface there as warnings instead of aborting the run.
	warn    *obs.Reporter
	metrics *runMetrics
	tracer  *obs.Tracer
	// chain is nil until a base has been written or a resume adopted one.
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

// due reports whether the cadence asks for a snapshot at a global distinct
// count of distinct.
func (ck *checkpointer) due(distinct int) bool {
	return ck.dir != "" && ck.cadence.due(distinct)
}

// write prepares this peer's checkpoint of the level boundary at depth — a
// new base when there is no chain yet or the delta log has outgrown the base
// (compaction), a delta block otherwise — and returns the failure text (""
// on success). Failures do not abort the exploration: the committed
// checkpoint stays valid, the error is recorded as a trace event plus a
// checkpoint.errors tick, and a warning reaches the progress reporter.
func (ck *checkpointer) write(c *Checker, res *Result, depth int, lf *levelFrontier, own []*Violation, elapsed time.Duration) string {
	stop := c.opts.Metrics.StartPhase("checkpoint")
	hdr := c.header(res, depth, elapsed, own)
	kind := "full"
	var err error
	if ch := ck.chain; ch == nil || ch.DeltaBytes > ch.baseBytes {
		err = ck.writeBase(c, hdr, lf)
	} else {
		kind = "delta"
		err = ck.appendDelta(c, hdr, lf)
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

// writeBase starts a new chain at hdr.Depth with a full snapshot under a
// fresh name. The chain it replaces stays on disk until a manifest naming
// the new one commits.
func (ck *checkpointer) writeBase(c *Checker, hdr snapshotHeader, lf *levelFrontier) error {
	base := fmt.Sprintf("chain-%06d-%s.snap", hdr.Depth, ck.nonce)
	size, err := c.writeSnapshot(filepath.Join(ck.dir, base), hdr, lf)
	if err != nil {
		return err
	}
	if ck.chain != nil && ck.metrics != nil {
		ck.metrics.ckCompactions.Inc()
	}
	ck.chain = &ckChain{chainPos: chainPos{Base: base}, baseBytes: size, depth: hdr.Depth}
	return nil
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
		collect(ck.dir, ch.Base)
	}
}

// collect deletes every chain file in dir except base and its log. Nothing
// outside the chain-file pattern is touched (the manifest, temp files, spill
// directories). Best-effort: a leftover is wasted disk, never a wrong resume.
func collect(dir, base string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if n := e.Name(); e.Type().IsRegular() && chainFile.MatchString(n) && n != base && n != deltaName(base) {
			os.Remove(filepath.Join(dir, n))
		}
	}
}

// load resumes this peer from its position in the committed manifest m: the
// named base, the delta log beside it cut to the committed bytes, exactly
// the committed blocks folded in — each adds the fingerprints discovered
// since the previous checkpoint and replaces the header and frontier with its
// own — and the frontier left standing decoded and verified, so a resume
// costs O(that frontier) state decodes however long the chain. The
// checkpointer adopts the chain and keeps appending to it; every other chain
// file goes.
func (ck *checkpointer) load(c *Checker, m *manifest) (*snapshot, error) {
	pos := m.Chains[ck.peer]
	path := filepath.Join(ck.dir, pos.Base)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := c.readSnapshot(path, raw)
	if err != nil {
		return nil, err
	}
	if snap.header.PeerID != ck.peer {
		return nil, fmt.Errorf("%s: snapshot belongs to peer %d, this is peer %d", path, snap.header.PeerID, ck.peer)
	}
	c.visited = snap.set
	logPath := filepath.Join(ck.dir, deltaName(pos.Base))
	blocks, err := readDeltaLog(logPath, pos)
	if err != nil {
		return nil, err
	}
	for i := range blocks {
		snap.set.InsertRecords(blocks[i].recs)
	}
	if n := len(blocks); n > 0 {
		last := blocks[n-1]
		snap.header, snap.frontierCount, snap.frontierRecs = last.header, last.frontierCount, last.frontierRecs
		path = logPath
	}
	if snap.header.Depth != m.Depth {
		return nil, fmt.Errorf("%s: checkpoint at depth %d, manifest committed %d", path, snap.header.Depth, m.Depth)
	}
	if err := c.restoreFrontier(snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ck.chain = &ckChain{chainPos: pos, baseBytes: snap.size, depth: m.Depth}
	ck.commit = m.Depth
	collect(ck.dir, pos.Base)
	return snap, nil
}
