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

// Incremental checkpoints. After a base snapshot (chain-<depth>-<nonce>.snap,
// see checkpoint.go) each further checkpoint of the chain appends one delta
// block to the log beside it instead of rewriting the whole set:
//
//	chain-<depth>-<nonce>.delta — delta blocks:
//	    magic[8]="SNDTBLDL" payloadLen[u64] crc32[u32 of payload] payload
//	    payload: headerLen[u32] headerJSON (full snapshotHeader at the
//	             delta's depth) recordCount[u64] fpset records (20 bytes
//	             each: fp, parent, depth) for every entry with Depth in
//	             (prevDepth, depth] frontierCount[u64] frontier records
//	             (see frontier.go) to the end of the payload
//
// The delta's record set is exactly "entries discovered since the previous
// checkpoint": once BFS level P completes, every edge at depth <= P is
// final (the equal-depth tie-break can no longer fire), so earlier
// checkpoints already hold those records' final values and never need
// patching.
//
// An append prepares a checkpoint (see the commit protocol, checkpoint.go):
// it counts once a manifest names the longer length. Resume cuts off what a
// crash left past the committed length (a torn tail, an uncommitted block);
// committed bytes that fail their CRC fail the resume loudly.

// deltaMagic starts every delta block.
const deltaMagic = "SNDTBLDL"

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
// newer than the chain's depth, and the frontier lf — at the chain's length,
// fsyncs it and advances the chain. The frontier streams to the file (a
// spilled level never comes back into RAM), so the head is written last,
// over a placeholder. On error the chain is unchanged (a partial append
// beyond its length is overwritten by the next attempt and cut off by
// resume).
func (ck *checkpointer) appendDelta(c *Checker, hdr snapshotHeader, lf *levelFrontier) error {
	ch := ck.chain
	hb, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	pre := le.AppendUint32(nil, uint32(len(hb)))
	pre = append(pre, hb...)
	if pre, err = c.visited.AppendNewer(pre, int32(ch.depth)); err != nil {
		return fmt.Errorf("delta records: %w", err)
	}
	pre = le.AppendUint64(pre, uint64(lf.size()))

	f, err := os.OpenFile(filepath.Join(ck.dir, deltaName(ch.Base)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(ch.DeltaBytes, io.SeekStart); err != nil {
		return err
	}
	w := ckWriterWrap(f)
	var head [deltaBlockHead]byte
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.Write(pre); err != nil {
		return err
	}
	if err := lf.writeRecords(bw, c.m); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	copy(head[:8], deltaMagic)
	le.PutUint64(head[8:16], uint64(cw.n))
	le.PutUint32(head[16:20], crc.Sum32())
	if _, err := f.WriteAt(head[:], ch.DeltaBytes); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if ch.Deltas == 0 {
		syncDir(ck.dir) // the log is new: make its name durable too
	}
	blockLen := deltaBlockHead + cw.n
	ch.DeltaBytes += blockLen
	ch.Deltas++
	ch.depth = hdr.Depth
	if ck.metrics != nil {
		ck.metrics.ckDeltas.Inc()
		ck.metrics.ckDeltaBytes.Add(blockLen)
	}
	return nil
}

// readDeltaLog reads the committed part of the delta log at path: exactly
// pos.Deltas blocks in pos.DeltaBytes bytes, in append order. Bytes beyond
// the committed length — a torn append, or a block never committed — are
// truncated away so later appends start clean; committed bytes that fail
// validation are an error (resume fails loudly rather than silently losing
// progress).
func readDeltaLog(path string, pos chainPos) ([]deltaBlock, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) && pos.DeltaBytes == 0 {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) < pos.DeltaBytes {
		return nil, fmt.Errorf("%s: committed %d bytes but log holds %d (delta log corrupt)", path, pos.DeltaBytes, len(raw))
	}
	if int64(len(raw)) > pos.DeltaBytes {
		if err := os.Truncate(path, pos.DeltaBytes); err != nil {
			return nil, fmt.Errorf("%s: truncating uncommitted tail: %w", path, err)
		}
		raw = raw[:pos.DeltaBytes]
	}
	var blocks []deltaBlock
	for len(raw) > 0 {
		if len(raw) < deltaBlockHead || string(raw[:8]) != deltaMagic {
			return nil, fmt.Errorf("%s: bad delta block magic at offset %d", path, pos.DeltaBytes-int64(len(raw)))
		}
		plen := binary.LittleEndian.Uint64(raw[8:16])
		want := binary.LittleEndian.Uint32(raw[16:20])
		raw = raw[deltaBlockHead:]
		if uint64(len(raw)) < plen {
			return nil, fmt.Errorf("%s: truncated committed delta block", path)
		}
		if got := crc32.ChecksumIEEE(raw[:plen]); got != want {
			return nil, fmt.Errorf("%s: delta block checksum mismatch (log corrupt)", path)
		}
		blk, err := parseDeltaPayload(raw[:plen])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		blocks = append(blocks, blk)
		raw = raw[plen:]
	}
	if len(blocks) != pos.Deltas {
		return nil, fmt.Errorf("%s: %d blocks committed, %d found", path, pos.Deltas, len(blocks))
	}
	return blocks, nil
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
