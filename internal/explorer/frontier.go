package explorer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// Out-of-core BFS frontiers. The level-synchronous search reads one frontier
// sequentially while appending the next, so both sides map naturally onto
// disk: under a memory budget the accumulating side flushes sorted runs of
// (fingerprint, encoded state) records, and the consuming side merge-reads
// those runs back as expansion blocks. A k-way merge of sorted unique runs
// reproduces exactly the globally fingerprint-sorted level sequence the
// in-RAM path produces, so block composition — and with it every block-level
// stop decision and the final result — is identical whether or not a level
// spilled, at every worker count. States cross to disk through the machine's
// codec, which every spec.Machine provides.
//
// A frontier entry has one on-disk form, the frontier record
//
//	fp[u64] encLen[u32] encoded-state bytes
//
// shared by spill runs, base snapshots and delta blocks (see checkpoint.go):
// one writer, one reader, and a disk-backed level is checkpointed by copying
// its run files verbatim.

// frontierRecHeader is the fixed part of a frontier record.
const frontierRecHeader = 12

// levelFrontier is one BFS level awaiting expansion: a sorted in-RAM tail
// plus zero or more sorted disk runs.
type levelFrontier struct {
	mem   []frontierEntry
	runs  []*frontierRun
	total int
}

// newMemFrontier wraps a fully in-RAM (sorted) level.
func newMemFrontier(entries []frontierEntry) *levelFrontier {
	return &levelFrontier{mem: entries, total: len(entries)}
}

// size is the number of states in the level.
func (lf *levelFrontier) size() int { return lf.total }

// discard deletes the level's spill files (no-op for in-RAM levels).
func (lf *levelFrontier) discard() {
	for _, r := range lf.runs {
		os.Remove(r.path)
	}
	lf.runs = nil
}

// writeRecords writes the whole level as frontier records — the checkpoint
// writer's view of the frontier: the in-RAM tail is encoded, disk runs are
// copied byte for byte. The records are each run's order, not the level's;
// readers sort.
func (lf *levelFrontier) writeRecords(w io.Writer, codec spec.StateCodec) error {
	if _, err := writeFrontierRecords(w, lf.mem, codec); err != nil {
		return err
	}
	for _, r := range lf.runs {
		f, err := os.Open(r.path)
		if err != nil {
			return err
		}
		n, err := io.Copy(w, f)
		f.Close()
		if err != nil {
			return err
		}
		if n != r.bytes {
			return fmt.Errorf("frontier run %s: %d bytes on disk, %d when written", r.path, n, r.bytes)
		}
	}
	return nil
}

// writeFrontierRecords encodes entries onto w as frontier records, one Write
// per record (callers buffer), returning the bytes written.
func writeFrontierRecords(w io.Writer, entries []frontierEntry, codec spec.StateCodec) (int64, error) {
	var hdr [frontierRecHeader]byte // placeholder, patched once the length is known
	var rec []byte
	total := int64(0)
	for _, fe := range entries {
		rec = codec.AppendState(append(rec[:0], hdr[:]...), fe.state)
		binary.LittleEndian.PutUint64(rec[0:8], fe.fp)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(rec)-frontierRecHeader))
		if _, err := w.Write(rec); err != nil {
			return total, err
		}
		total += int64(len(rec))
	}
	return total, nil
}

// frontierRecReader decodes frontier records from a stream. Record bytes
// come back from disk, so they are treated as hostile: remain is the number
// of bytes the source can still supply, and every length is checked against
// it before anything is sized from it.
type frontierRecReader struct {
	r      io.Reader
	codec  spec.StateCodec
	remain int64
	enc    []byte
}

// next decodes one record.
func (rr *frontierRecReader) next() (frontierEntry, error) {
	var hdr [frontierRecHeader]byte
	if rr.remain < frontierRecHeader {
		return frontierEntry{}, fmt.Errorf("frontier record: %w", io.ErrUnexpectedEOF)
	}
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		return frontierEntry{}, fmt.Errorf("frontier record: %w", err)
	}
	rr.remain -= frontierRecHeader
	f := binary.LittleEndian.Uint64(hdr[0:8])
	n := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if n > rr.remain {
		return frontierEntry{}, fmt.Errorf("frontier record %#x: state length %d exceeds the %d bytes left", f, n, rr.remain)
	}
	if int64(cap(rr.enc)) < n {
		rr.enc = make([]byte, n)
	}
	rr.enc = rr.enc[:n]
	if _, err := io.ReadFull(rr.r, rr.enc); err != nil {
		return frontierEntry{}, fmt.Errorf("frontier record %#x: %w", f, err)
	}
	rr.remain -= n
	st, rest, err := rr.codec.DecodeState(rr.enc)
	if err != nil {
		return frontierEntry{}, fmt.Errorf("frontier record %#x: %w", f, err)
	}
	if len(rest) != 0 {
		return frontierEntry{}, fmt.Errorf("frontier record %#x: %d trailing bytes", f, len(rest))
	}
	return frontierEntry{state: st, fp: f}, nil
}

// splitFrontierRecords delimits the first count records of p by walking
// their headers — no state is decoded — and returns them and what follows.
func splitFrontierRecords(p []byte, count uint64) (recs, rest []byte, err error) {
	rest = p
	for i := uint64(0); i < count; i++ {
		if len(rest) < frontierRecHeader {
			return nil, nil, fmt.Errorf("frontier record %d of %d: %w", i, count, io.ErrUnexpectedEOF)
		}
		n := uint64(binary.LittleEndian.Uint32(rest[8:]))
		if left := uint64(len(rest) - frontierRecHeader); n > left {
			return nil, nil, fmt.Errorf("frontier record %d: state length %d exceeds the %d bytes left", i, n, left)
		}
		rest = rest[frontierRecHeader+n:]
	}
	return p[:len(p)-len(rest)], rest, nil
}

// readFrontier decodes recs, which must be exactly count records.
func readFrontier(recs []byte, count uint64, codec spec.StateCodec) ([]frontierEntry, error) {
	if count > uint64(len(recs))/frontierRecHeader {
		return nil, fmt.Errorf("frontier: %d records cannot fit in %d bytes", count, len(recs))
	}
	rr := &frontierRecReader{r: bytes.NewReader(recs), codec: codec, remain: int64(len(recs))}
	out := make([]frontierEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		fe, err := rr.next()
		if err != nil {
			return nil, err
		}
		out = append(out, fe)
	}
	if rr.remain != 0 {
		return nil, fmt.Errorf("frontier: %d bytes follow the %d records", rr.remain, count)
	}
	return out, nil
}

// frontierRun is one immutable sorted spill run of a level, a file of
// frontier records. Runs are session scratch: a checkpoint copies their
// bytes, a resumed run never reads the files themselves.
type frontierRun struct {
	path  string
	count int
	bytes int64
}

// writeFrontierRun writes sorted entries as a new run file.
func writeFrontierRun(path string, entries []frontierEntry, codec spec.StateCodec) (*frontierRun, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	total, err := writeFrontierRecords(bw, entries, codec)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return &frontierRun{path: path, count: len(entries), bytes: total}, nil
}

// frontierCursor merge-reads a spilled level back in global fingerprint
// order, one expansion block at a time.
type frontierCursor struct {
	srcs []*frontierRunReader
	mem  []frontierEntry
	mi   int
}

// cursor opens the level for merged sequential reading; every level, in RAM
// or not, is read through one. Callers must close it.
func (lf *levelFrontier) cursor(codec spec.StateCodec) (*frontierCursor, error) {
	c := &frontierCursor{mem: lf.mem}
	for _, r := range lf.runs {
		rd, err := newFrontierRunReader(r, codec)
		if err != nil {
			c.close()
			return nil, err
		}
		c.srcs = append(c.srcs, rd)
	}
	return c, nil
}

func (c *frontierCursor) close() {
	for _, rd := range c.srcs {
		rd.close()
	}
}

// nextBlock fills buf with up to n entries in global fingerprint order; an
// empty result means the level is exhausted. An entry taken from the in-RAM
// tail leaves its slot without a state, so the level's states are freed
// block by block as they are expanded.
func (c *frontierCursor) nextBlock(buf []frontierEntry, n int) ([]frontierEntry, error) {
	for len(buf) < n {
		best := -1
		var bestFP uint64
		for i, rd := range c.srcs {
			if rd.ok && (best == -1 || rd.cur.fp < bestFP) {
				best = i
				bestFP = rd.cur.fp
			}
		}
		if c.mi < len(c.mem) && (best == -1 || c.mem[c.mi].fp < bestFP) {
			buf = append(buf, c.mem[c.mi])
			c.mem[c.mi].state = nil
			c.mi++
			continue
		}
		if best == -1 {
			break
		}
		buf = append(buf, c.srcs[best].cur)
		if err := c.srcs[best].advance(); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frontierRunReader streams one run, decoding states as it goes.
type frontierRunReader struct {
	f    *os.File
	recs frontierRecReader
	left int
	cur  frontierEntry
	ok   bool
}

func newFrontierRunReader(r *frontierRun, codec spec.StateCodec) (*frontierRunReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	rd := &frontierRunReader{
		f:    f,
		recs: frontierRecReader{r: bufio.NewReaderSize(f, 1<<16), codec: codec, remain: r.bytes},
		left: r.count,
	}
	if err := rd.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return rd, nil
}

func (rd *frontierRunReader) close() { rd.f.Close() }

func (rd *frontierRunReader) advance() error {
	if rd.left == 0 {
		rd.ok = false
		return nil
	}
	fe, err := rd.recs.next()
	if err != nil {
		return err
	}
	rd.left--
	rd.cur, rd.ok = fe, true
	return nil
}

// frontierSink accumulates the next level under a memory budget, flushing
// the in-RAM buffer to a sorted run whenever it crosses the spill threshold.
// All methods are nil-receiver-safe (a nil sink is the unbudgeted path).
type frontierSink struct {
	mc      *memController
	runs    []*frontierRun
	spilled int
}

// maybeSpill flushes next to disk when it has outgrown the spill threshold,
// returning the (possibly emptied) buffer. A write failure degrades
// gracefully: the level stays in RAM and frontier spilling is disabled for
// the rest of the run with a warning.
func (sk *frontierSink) maybeSpill(next []frontierEntry) []frontierEntry {
	if sk == nil {
		return next
	}
	mc := sk.mc
	if mc.frontierChunk == 0 || len(next) < mc.frontierChunk {
		return next
	}
	sortFrontier(next)
	mc.frontierSeq++
	path := filepath.Join(mc.dir, fmt.Sprintf("frontier-%06d.run", mc.frontierSeq))
	run, err := writeFrontierRun(path, next, mc.codec)
	if err != nil {
		mc.frontierChunk = 0
		mc.warnf("frontier spill failed, keeping level in RAM: %v", err)
		return next
	}
	sk.runs = append(sk.runs, run)
	sk.spilled += run.count
	if m := mc.m; m != nil {
		m.frontierSpillBytes.Add(run.bytes)
		m.frontierSpilledEntries.Add(int64(run.count))
	}
	for i := range next {
		next[i].state = nil
	}
	return next[:0]
}

// spilledCount is the number of next-level states already on disk.
func (sk *frontierSink) spilledCount() int {
	if sk == nil {
		return 0
	}
	return sk.spilled
}

// finish seals the level: the sorted in-RAM remainder plus any spilled runs
// become the next levelFrontier.
func (sk *frontierSink) finish(next []frontierEntry) *levelFrontier {
	if sk == nil || len(sk.runs) == 0 {
		return newMemFrontier(next)
	}
	return &levelFrontier{mem: next, runs: sk.runs, total: len(next) + sk.spilled}
}
