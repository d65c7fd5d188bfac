package fpset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The binary layout of a serialised set: a uint64 entry count followed by
// one record per entry. The explorer's checkpoint file wraps this stream in
// a versioned envelope; the layout below never changes within a checkpoint
// version.

// RecordSize is the byte length of one entry's record: fingerprint, parent
// and depth, little-endian. Snapshots, checkpoint delta blocks and spill runs
// all store entries as these records, written by appendRecord and read by
// getRecord alone.
const RecordSize = 8 + 8 + 4

// appendRecord appends the record of (fp, e) to b.
func appendRecord(b []byte, fp uint64, e Edge) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, fp)
	b = le.AppendUint64(b, e.Parent)
	return le.AppendUint32(b, uint32(e.Depth))
}

// getRecord decodes the record at the head of b.
func getRecord(b []byte) (fp uint64, e Edge) {
	_ = b[RecordSize-1]
	le := binary.LittleEndian
	return le.Uint64(b[0:8]), Edge{Parent: le.Uint64(b[8:16]), Depth: int32(le.Uint32(b[16:20]))}
}

// WriteTo serialises every entry to w, including entries spilled to disk
// runs. It locks one shard at a time, so the caller must ensure no
// concurrent Insert (the explorer snapshots only at level boundaries, where
// workers are quiesced). Returns the byte count written.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, RecordSize), uint64(s.Len()))
	if _, err := bw.Write(buf); err != nil {
		return 0, err
	}
	written := int64(8)
	var werr error
	rerr := s.rangeAll(func(fp uint64, e Edge) bool {
		buf = appendRecord(buf[:0], fp, e)
		if _, err := bw.Write(buf); err != nil {
			werr = err
			return false
		}
		written += RecordSize
		return true
	})
	if werr != nil {
		return written, werr
	}
	if rerr != nil {
		return written, rerr
	}
	return written, bw.Flush()
}

// AppendNewer appends to b the serialised form WriteTo writes, restricted to
// the entries RangeNewer(minDepth) visits: their count, then their records.
func (s *Set) AppendNewer(b []byte, minDepth int32) ([]byte, error) {
	countAt := len(b)
	b = binary.LittleEndian.AppendUint64(b, 0)
	count := uint64(0)
	err := s.RangeNewer(minDepth, func(fp uint64, e Edge) bool {
		b = appendRecord(b, fp, e)
		count++
		return true
	})
	binary.LittleEndian.PutUint64(b[countAt:], count)
	return b, err
}

// InsertRecords inserts every record of recs, a whole number of records as
// AppendNewer or WriteTo wrote them.
func (s *Set) InsertRecords(recs []byte) {
	for ; len(recs) >= RecordSize; recs = recs[RecordSize:] {
		fp, e := getRecord(recs)
		s.Insert(fp, e.Parent, e.Depth)
	}
}

// Read deserialises a stream produced by WriteTo into a fresh set with the
// given shard count (<= 0 selects DefaultShards; the shard count is a
// runtime tuning knob, not part of the serialised state, so a snapshot
// written with one shard count may be read back with another).
func Read(r io.Reader, shards int) (*Set, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [RecordSize]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("fpset: read header: %w", err)
	}
	count := binary.LittleEndian.Uint64(buf[:8])
	s := New(shards)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("fpset: read entry %d/%d: %w", i, count, err)
		}
		s.InsertRecords(buf[:])
	}
	return s, nil
}
