package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format. Every message is a length-prefixed binary frame:
//
//	length[u32 LE]  type[u8]  tag[u64 LE]  payload[length-9 bytes]
//
// where length covers type+tag+payload. Frame types:
//
//	hello      handshake; tag carries the run digest, payload ids and versions
//	block      one level's candidate block; tag is the barrier tag
//	summary    one peer's barrier summary (opaque to the transport)
//	probeReq   parent-edge probe; tag is the fingerprint, empty payload
//	probeResp  probe answer: parent[u64] depth[i32] found[u8]
//	bye        coordinator releasing ServeProbes loops
//
// Block payloads are the raw (uncompressed: OPERATIONS.md "Bandwidth" says
// why) records of the candidates a peer generated for fingerprints another
// peer owns, strictly increasing in fingerprint; see AppendBlock for the
// layout. Summaries are small JSON documents produced by the explorer — the
// transport never interprets them.

// wireVersion names the block format in the TCP hello, so mismatched binaries
// fail at the handshake, not at the first data barrier (a hello from before
// raw blocks reads as 0; version 2 carried Raft-family states field by
// field, version 3 as their records). It is not PartitionVersion, which also
// keys checkpoints.
const wireVersion = 3

// Frame type bytes.
const (
	frameHello byte = iota + 1
	frameBlock
	frameSummary
	frameProbeReq
	frameProbeResp
	frameBye
)

// maxFrame bounds a frame payload (sanity check against corrupt length
// prefixes, not a protocol limit a healthy run approaches). maxHello bounds a
// hello: it arrives before the peer is known, and its payload is a few dozen
// bytes of JSON, so its length prefix must not size a large allocation.
const (
	maxFrame = 1 << 30
	maxHello = 1 << 10
)

// frameName renders a frame type for error messages.
func frameName(t byte) string {
	switch t {
	case frameHello:
		return "hello"
	case frameBlock:
		return "block"
	case frameSummary:
		return "summary"
	case frameProbeReq:
		return "probe-req"
	case frameProbeResp:
		return "probe-resp"
	case frameBye:
		return "bye"
	}
	return fmt.Sprintf("frame(%d)", t)
}

// writeFrame emits one frame to w.
func writeFrame(w io.Writer, typ byte, tag uint64, payload []byte) error {
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(9+len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:13], tag)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from r whose payload is at most limit bytes.
func readFrame(r io.Reader, limit uint32) (typ byte, tag uint64, payload []byte, err error) {
	var hdr [13]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 9 || n-9 > limit {
		return 0, 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if _, err = io.ReadFull(r, hdr[4:13]); err != nil {
		return 0, 0, nil, err
	}
	typ = hdr[4]
	tag = binary.LittleEndian.Uint64(hdr[5:13])
	payload = make([]byte, n-9)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return typ, tag, payload, nil
}

// Candidate is one cross-peer successor record: a state generated on one
// peer whose fingerprint belongs to another. The receiving owner merges
// candidates deterministically (min parent per fingerprint) before
// inserting into its fingerprint-set shard.
type Candidate struct {
	// FP is the successor's canonical fingerprint.
	FP uint64
	// Parent is the fingerprint of the frontier state that generated it.
	Parent uint64
	// Action is the generating action's index in the run's shared action
	// table (spec.Machine.Actions order).
	Action uint16
	// State is the successor's spec.StateCodec encoding.
	State []byte
}

// AppendBlock appends the encoding of cands — which must be strictly
// increasing in FP — to dst and returns the extended slice. Record layout:
// uvarint count, then per candidate the FP delta from its predecessor
// (uvarint; sorted input keeps deltas small), Parent (uvarint), Action
// (uvarint), and the state encoding (uvarint length + bytes).
func AppendBlock(dst []byte, cands []Candidate) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cands)))
	prev := uint64(0)
	for i := range cands {
		c := &cands[i]
		dst = binary.AppendUvarint(dst, c.FP-prev)
		prev = c.FP
		dst = binary.AppendUvarint(dst, c.Parent)
		dst = binary.AppendUvarint(dst, uint64(c.Action))
		dst = binary.AppendUvarint(dst, uint64(len(c.State)))
		dst = append(dst, c.State...)
	}
	return dst
}

// DecodeBlock's errors for a block not strictly increasing in FP, the order
// the receiving owner merges on: a zero delta after the first candidate, and
// a delta that wraps.
var (
	ErrDuplicateFP = errors.New("duplicate fingerprint")
	ErrFPWrap      = errors.New("fingerprint delta wraps past 2^64")
)

// DecodeBlock decodes a candidate block (the inverse of AppendBlock). The
// returned candidates alias src's backing array.
func DecodeBlock(src []byte) ([]Candidate, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("transport: block count: truncated")
	}
	src = src[n:]
	if count > uint64(len(src))+1 {
		return nil, fmt.Errorf("transport: block claims %d candidates in %d bytes", count, len(src))
	}
	cands := make([]Candidate, 0, count)
	fp := uint64(0)
	for i := uint64(0); i < count; i++ {
		var c Candidate
		d, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, fmt.Errorf("transport: candidate %d: truncated fp", i)
		}
		src = src[n:]
		switch {
		case d == 0 && i > 0:
			return nil, fmt.Errorf("transport: candidate %d: %w", i, ErrDuplicateFP)
		case fp+d < fp:
			return nil, fmt.Errorf("transport: candidate %d: %w", i, ErrFPWrap)
		}
		fp += d
		c.FP = fp
		c.Parent, n = binary.Uvarint(src)
		if n <= 0 {
			return nil, fmt.Errorf("transport: candidate %d: truncated parent", i)
		}
		src = src[n:]
		a, n := binary.Uvarint(src)
		if n <= 0 || a > 0xFFFF {
			return nil, fmt.Errorf("transport: candidate %d: bad action", i)
		}
		src = src[n:]
		c.Action = uint16(a)
		sl, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, fmt.Errorf("transport: candidate %d: truncated state length", i)
		}
		src = src[n:]
		if sl > uint64(len(src)) {
			return nil, fmt.Errorf("transport: candidate %d: state %d bytes, %d remain", i, sl, len(src))
		}
		c.State = src[:sl:sl]
		src = src[sl:]
		cands = append(cands, c)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after block", len(src))
	}
	return cands, nil
}

// EncodeBlock is the wire encoding of a candidate block: AppendBlock into a
// presized buffer (the error is always nil). An empty block encodes as an
// empty payload.
func EncodeBlock(cands []Candidate) ([]byte, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	size := binary.MaxVarintLen64
	for i := range cands { // fp delta, parent and length uvarints; action ≤ 3 bytes
		size += 3*binary.MaxVarintLen64 + 3 + len(cands[i].State)
	}
	return AppendBlock(make([]byte, 0, size), cands), nil
}

// DecodeWireBlock inverts EncodeBlock. An empty payload is an empty block.
func DecodeWireBlock(payload []byte) ([]Candidate, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	return DecodeBlock(payload)
}
