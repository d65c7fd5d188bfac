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

// The chain log. A peer's chain is one file of checkpoint blocks, each
// appended in place (see the commit protocol, checkpoint.go):
//
//	chain-<depth>-<nonce>.log — blocks:
//	    magic[8]="SNDTBLBK" payloadLen[u64] crc32[u32 of payload] payload
//	    payload: headerLen[u32] headerJSON (blockHeader at the block's depth)
//	             frontierCount[u64] frontier records (see frontier.go)
//	             fpset records (fpset.RecordSize bytes each: fp, parent,
//	             depth) to the end of the payload
//
// The first block of a log holds every fingerprint-set entry; each later
// block holds exactly the entries discovered since the block before it:
// once BFS level P completes, every edge at depth <= P is final (the
// equal-depth tie-break can no longer fire), so earlier blocks already hold
// those records' final values and never need patching. Every section
// streams to the file — no count is needed before its records, and neither
// the set nor a spilled level comes back into RAM — so the head is written
// last, over a placeholder.
//
// A block prepares a checkpoint: it counts once a manifest names the longer
// length. Resume cuts off what a crash left past the committed length (a
// torn tail, an uncommitted block); committed bytes that fail their CRC fail
// the resume loudly.

// blockMagic starts every block.
const blockMagic = "SNDTBLBK"

// blockHead is the fixed head of a block: magic, payload length, payload CRC.
const blockHead = 8 + 8 + 4

// ckBlock is one parsed block of a chain log. Its frontier section stays
// encoded: a resume inserts every block's fingerprint-set records straight
// into the set and decodes only the last block's frontier.
type ckBlock struct {
	header        blockHeader
	frontierCount uint64
	frontierRecs  []byte
	// size is the block's length in the log, head included.
	size int64
}

// writeBlock is the one block writer: it writes hdr, the frontier lf and the
// fingerprint-set entries deeper than minDepth (-1: all of them) as one
// block at offset off of the log at path, fsyncs it — and the directory too
// when off is 0, a new log — and returns the block's length. A failed write
// leaves the log's committed bytes as they were: what it wrote past them is
// overwritten by the next attempt, or cut off by resume.
func (c *Checker) writeBlock(path string, off int64, hdr blockHeader, lf *levelFrontier, minDepth int) (int64, error) {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	if off == 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	w := ckWriterWrap(f)
	var head [blockHead]byte
	if _, err := w.Write(head[:]); err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	bw := bufio.NewWriterSize(cw, 1<<16)
	pre := le.AppendUint32(nil, uint32(len(hb)))
	pre = append(pre, hb...)
	pre = le.AppendUint64(pre, uint64(lf.size()))
	if _, err := bw.Write(pre); err != nil {
		return 0, err
	}
	if err := lf.writeRecords(bw, c.m); err != nil {
		return 0, err
	}
	if _, err := c.visited.WriteRecords(bw, int32(minDepth)); err != nil {
		return 0, fmt.Errorf("fingerprint records: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	copy(head[:8], blockMagic)
	le.PutUint64(head[8:16], uint64(cw.n))
	le.PutUint32(head[16:20], crc.Sum32())
	if _, err := f.WriteAt(head[:], off); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if off == 0 {
		syncDir(dir) // the log is new: make its name durable too
	}
	return blockHead + cw.n, nil
}

// readLog is the one block reader. raw is the log at path cut to its
// committed bytes; for each block in order it checks the envelope (magic,
// length, checksum), then the header — this format's version, this run's
// identity, this peer, a depth past the block before — and only then
// delimits the frontier section and inserts the block's fingerprint-set
// records into c.visited. It returns every block, frontiers still encoded.
// raw is hostile (a checksum is not a proof of origin): every count and
// length is bounded by the bytes that remain before anything is sized from
// it.
func (c *Checker) readLog(path string, raw []byte, peer int) ([]ckBlock, error) {
	le := binary.LittleEndian
	var blocks []ckBlock
	for off := int64(0); off < int64(len(raw)); {
		bad := func(format string, args ...any) ([]ckBlock, error) {
			return nil, fmt.Errorf("%s: block %d at offset %d: %s", path, len(blocks), off, fmt.Sprintf(format, args...))
		}
		p := raw[off:]
		if len(p) < blockHead || string(p[:8]) != blockMagic {
			return bad("bad block magic")
		}
		plen := le.Uint64(p[8:16])
		if plen > uint64(len(p)-blockHead) {
			return bad("truncated: %d payload bytes, %d committed", plen, len(p)-blockHead)
		}
		payload := p[blockHead : blockHead+plen]
		if crc32.ChecksumIEEE(payload) != le.Uint32(p[16:20]) {
			return bad("checksum mismatch (log corrupt)")
		}
		if len(payload) < 4+8 || uint64(le.Uint32(payload)) > uint64(len(payload)-4-8) {
			return bad("truncated header")
		}
		hlen := uint64(le.Uint32(payload))
		blk := ckBlock{size: blockHead + int64(plen)}
		h := &blk.header
		if err := json.Unmarshal(payload[4:4+hlen], h); err != nil {
			return bad("header: %v", err)
		}
		if h.Version != snapVersion {
			return bad("checkpoint format version %d, this build reads %d", h.Version, snapVersion)
		}
		if err := c.checkIdentity(path, h.runIdentity); err != nil {
			return nil, err
		}
		if h.PeerID != peer {
			return bad("written by peer %d, this is peer %d", h.PeerID, peer)
		}
		if n := len(blocks); n > 0 && h.Depth <= blocks[n-1].header.Depth {
			return bad("depth %d does not follow the previous block's %d", h.Depth, blocks[n-1].header.Depth)
		}
		blk.frontierCount = le.Uint64(payload[4+hlen:])
		recs, rest, err := splitFrontierRecords(payload[4+hlen+8:], blk.frontierCount)
		if err != nil {
			return bad("%v", err)
		}
		if len(rest)%fpset.RecordSize != 0 {
			return bad("fingerprint records: %d bytes are not a whole number of %d-byte records", len(rest), fpset.RecordSize)
		}
		blk.frontierRecs = recs
		c.visited.InsertRecords(rest)
		blocks = append(blocks, blk)
		off += blk.size
	}
	return blocks, nil
}
