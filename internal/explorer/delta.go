package explorer

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/sandtable-go/sandtable/internal/fpset"
)

// Incremental crash-safe checkpoints. After the first full snapshot
// (checkpoint.snap, see checkpoint.go) each further checkpoint appends one
// delta block to an append-only log instead of rewriting the whole set:
//
//	checkpoint.delta  — delta blocks:
//	    magic[8]="SNDTBLDL" payloadLen[u64] crc32[u32 of payload] payload
//	    payload: headerLen[u32] headerJSON (full snapshotHeader at the
//	             delta's depth) recordCount[u64] fpset records (20 bytes
//	             each: fp, parent, depth) for every entry with Depth in
//	             (prevDepth, depth] frontierCount[u64] frontier records
//	             (see frontier.go) to the end of the payload
//	checkpoint.commit — JSON commit record naming the number of valid bytes
//	    of the delta log, written via temp file + fsync + atomic rename
//	    after the delta append is synced.
//
// The delta's record set is exactly "entries discovered since the previous
// checkpoint": once BFS level P completes, every edge at depth <= P is
// final (the equal-depth tie-break can no longer fire), so earlier
// checkpoints already hold those records' final values and never need
// patching.
//
// Commit protocol: append+fsync the delta block, then publish it by
// atomically renaming a fresh commit record over checkpoint.commit. A crash
// mid-append leaves a torn tail beyond the committed length, which recovery
// truncates; a crash before the rename leaves the old commit record naming
// the old length — same outcome. Committed bytes that fail their CRC mean
// real corruption and fail the resume loudly.
//
// The commit record also names the base snapshot's own CRC, tying the chain
// to its base: after a compaction (full rewrite of checkpoint.snap) crashes
// between the snapshot rename and the chain reset, the stale chain's
// base CRC no longer matches and the chain is ignored — correct, because a
// compacted base supersedes every delta written against its predecessor.

const (
	// deltaFile is the append-only delta log within CheckpointOptions.Dir.
	deltaFile = "checkpoint.delta"
	// commitFile is the atomically renamed commit record.
	commitFile = "checkpoint.commit"
	// deltaMagic starts every delta block.
	deltaMagic = "SNDTBLDL"
)

// commitRecord is the JSON content of checkpoint.commit.
type commitRecord struct {
	Version int `json:"version"`
	// BaseCRC is the trailing CRC of the checkpoint.snap the chain extends.
	BaseCRC uint32 `json:"base_crc"`
	// DeltaBytes is the number of valid bytes of checkpoint.delta.
	DeltaBytes int64 `json:"delta_bytes"`
	// Deltas is the number of blocks within DeltaBytes.
	Deltas int `json:"deltas"`
	// Depth is the BFS depth the chain's last block checkpoints.
	Depth int `json:"depth"`
}

// deltaBlock is one parsed block of the delta log. Both sections stay
// encoded: a resume inserts the records straight into the fingerprint set
// and decodes only the last block's frontier.
type deltaBlock struct {
	header snapshotHeader
	// recs holds the fpset records, fpset.RecordSize bytes each.
	recs          []byte
	frontierCount uint64
	frontierRecs  []byte
}

// deltaBlockHead is the fixed head of a delta block: magic, payload length,
// payload CRC.
const deltaBlockHead = 8 + 8 + 4

// appendDelta appends one delta block — hdr, the fingerprint-set entries
// newer than the chain's depth, and the frontier lf — at the chain's
// committed length, and publishes it with a commit record. Returns the
// block's byte length. The frontier streams to the file (a spilled level
// never comes back into RAM), so the head is written last, over a
// placeholder. On error the previously committed chain is untouched (a
// partial append beyond the committed length is overwritten by the next
// attempt and truncated by recovery).
func (ck *checkpointer) appendDelta(c *Checker, hdr snapshotHeader, lf *levelFrontier) (int64, error) {
	ch := ck.chain
	hb, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	pre := le.AppendUint32(nil, uint32(len(hb)))
	pre = append(pre, hb...)
	if pre, err = c.visited.AppendNewer(pre, int32(ch.depth)); err != nil {
		return 0, fmt.Errorf("delta records: %w", err)
	}
	pre = le.AppendUint64(pre, uint64(lf.size()))

	f, err := os.OpenFile(filepath.Join(ck.dir, deltaFile), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(ch.deltaBytes, io.SeekStart); err != nil {
		return 0, err
	}
	w := ckWriterWrap(f)
	var head [deltaBlockHead]byte
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.Write(pre); err != nil {
		return 0, err
	}
	if err := lf.writeRecords(bw, c.m); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	copy(head[:8], deltaMagic)
	le.PutUint64(head[8:16], uint64(cw.n))
	le.PutUint32(head[16:20], crc.Sum32())
	if _, err := f.WriteAt(head[:], ch.deltaBytes); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	blockLen := deltaBlockHead + cw.n
	rec := commitRecord{
		Version:    snapVersion,
		BaseCRC:    ch.baseCRC,
		DeltaBytes: ch.deltaBytes + blockLen,
		Deltas:     ch.deltaCount + 1,
		Depth:      hdr.Depth,
	}
	if err := writeCommit(ck.dir, rec); err != nil {
		return 0, err
	}
	return blockLen, nil
}

// writeCommit publishes a commit record atomically.
func writeCommit(dir string, rec commitRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, commitFile), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// loadDeltaChain reads and validates the committed delta chain for a base
// snapshot with the given CRC. It returns the decoded blocks in append
// order, or nil when there is no (usable) chain: no commit record, or a
// chain written against a different base (stale after a crashed
// compaction). A torn tail beyond the committed length is truncated so
// later appends start clean; committed bytes that fail validation are an
// error (resume fails loudly rather than silently losing progress).
func loadDeltaChain(dir string, baseCRC uint32) ([]deltaBlock, *commitRecord, error) {
	commitPath := filepath.Join(dir, commitFile)
	deltaPath := filepath.Join(dir, deltaFile)
	cb, err := os.ReadFile(commitPath)
	if os.IsNotExist(err) {
		// No commit: any delta bytes on disk are uncommitted scratch.
		os.Remove(deltaPath)
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var rec commitRecord
	if err := json.Unmarshal(cb, &rec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", commitPath, err)
	}
	if rec.Version != snapVersion {
		return nil, nil, fmt.Errorf("%s: version %d, this build reads %d", commitPath, rec.Version, snapVersion)
	}
	if rec.BaseCRC != baseCRC {
		// Chain belongs to an older base: a compaction replaced the base
		// (which supersedes these deltas) and crashed before clearing the
		// chain. Safe to discard.
		os.Remove(commitPath)
		os.Remove(deltaPath)
		return nil, nil, nil
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		return nil, nil, fmt.Errorf("%s names %d delta bytes: %w", commitPath, rec.DeltaBytes, err)
	}
	if int64(len(raw)) < rec.DeltaBytes {
		return nil, nil, fmt.Errorf("%s: committed %d bytes but log holds %d (delta log corrupt)", deltaPath, rec.DeltaBytes, len(raw))
	}
	if int64(len(raw)) > rec.DeltaBytes {
		// Torn tail from an append that crashed before committing.
		if err := os.Truncate(deltaPath, rec.DeltaBytes); err != nil {
			return nil, nil, fmt.Errorf("%s: truncating torn tail: %w", deltaPath, err)
		}
		raw = raw[:rec.DeltaBytes]
	}
	var blocks []deltaBlock
	for len(raw) > 0 {
		if len(raw) < deltaBlockHead || string(raw[:8]) != deltaMagic {
			return nil, nil, fmt.Errorf("%s: bad delta block magic at offset %d", deltaPath, rec.DeltaBytes-int64(len(raw)))
		}
		plen := binary.LittleEndian.Uint64(raw[8:16])
		want := binary.LittleEndian.Uint32(raw[16:20])
		raw = raw[deltaBlockHead:]
		if uint64(len(raw)) < plen {
			return nil, nil, fmt.Errorf("%s: truncated committed delta block", deltaPath)
		}
		if got := crc32.ChecksumIEEE(raw[:plen]); got != want {
			return nil, nil, fmt.Errorf("%s: delta block checksum mismatch (log corrupt)", deltaPath)
		}
		blk, err := parseDeltaPayload(raw[:plen])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", deltaPath, err)
		}
		blocks = append(blocks, blk)
		raw = raw[plen:]
	}
	if len(blocks) != rec.Deltas {
		return nil, nil, fmt.Errorf("%s: %d blocks committed, %d found", deltaPath, rec.Deltas, len(blocks))
	}
	return blocks, &rec, nil
}

// parseDeltaPayload splits one CRC-checked block payload into its sections.
// The bytes are still hostile (a checksum is not a proof of origin): every
// count is bounded by what remains before it is used.
func parseDeltaPayload(p []byte) (deltaBlock, error) {
	var blk deltaBlock
	le := binary.LittleEndian
	if len(p) < 4 {
		return blk, fmt.Errorf("truncated delta header")
	}
	hlen := uint64(le.Uint32(p))
	p = p[4:]
	if uint64(len(p)) < hlen+8 {
		return blk, fmt.Errorf("truncated delta header")
	}
	if err := json.Unmarshal(p[:hlen], &blk.header); err != nil {
		return blk, fmt.Errorf("delta header: %w", err)
	}
	rcount := le.Uint64(p[hlen:])
	p = p[hlen+8:]
	const rs = fpset.RecordSize
	if rcount > uint64(len(p))/rs || uint64(len(p))-rs*rcount < 8 {
		return blk, fmt.Errorf("truncated delta records: %d bytes for %d records", len(p), rcount)
	}
	blk.recs, p = p[:rs*rcount], p[rs*rcount:]
	blk.frontierCount = le.Uint64(p)
	blk.frontierRecs = p[8:]
	return blk, nil
}
