package fpset

import (
	"encoding/binary"
	"io"
)

// The set's on-disk form is a sequence of records, one per entry, with no
// count ahead of them: the explorer's checkpoint blocks end in such a
// sequence, delimited by the block's own length, and spill runs hold one
// after their header.

// RecordSize is the byte length of one entry's record: fingerprint, parent
// and depth, little-endian. Checkpoint blocks and spill runs both store
// entries as these records, written by appendRecord and read by getRecord
// alone.
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

// WriteRecords streams to w the record of every entry RangeNewer(minDepth)
// visits — every entry, spilled ones included, when minDepth is -1 — one
// Write per record (callers buffer), and returns how many it wrote. Nothing
// is collected in RAM first. It locks one shard at a time, so the caller
// must ensure no concurrent Insert (the explorer checkpoints only at level
// boundaries, where workers are quiesced).
func (s *Set) WriteRecords(w io.Writer, minDepth int32) (int64, error) {
	var rec [RecordSize]byte
	n := int64(0)
	var werr error
	err := s.RangeNewer(minDepth, func(fp uint64, e Edge) bool {
		if _, werr = w.Write(appendRecord(rec[:0], fp, e)); werr != nil {
			return false
		}
		n++
		return true
	})
	if werr != nil {
		return n, werr
	}
	return n, err
}

// InsertRecords inserts every record of recs, a whole number of records as
// WriteRecords wrote them. The shard count of the receiving set is a runtime
// tuning knob, not part of the records: a set written with one shard count
// may be read back into another.
func (s *Set) InsertRecords(recs []byte) {
	for ; len(recs) >= RecordSize; recs = recs[RecordSize:] {
		fp, e := getRecord(recs)
		s.Insert(fp, e.Parent, e.Depth)
	}
}
