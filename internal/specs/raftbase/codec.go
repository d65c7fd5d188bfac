package raftbase

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// spec.StateCodec for the Raft-family states, which lets frontiers spill to
// disk (explorer -mem-budget), travel between cluster peers and ride in
// checkpoints. The machine's instantiation constants (node count, vocabulary,
// feature flags, durability) are NOT encoded — they are re-derived from the
// decoding machine's options, so an encoding is only meaningful to a machine
// built with the same Options, which is exactly the contract the explorer's
// checkpoint/cluster compatibility digests enforce.
//
// The encoding is the state's record, in varints:
//
//   - the header fields the record does not hold: one byte of flags
//     (SnapConflictInstall, a KV read, the read's Bad), the read's node, key,
//     value and wanted value when there is one, the budget counters, and the
//     violation flag;
//   - len(W), then every word of W as the zigzag varint of its int32;
//   - len(Q), then every queued message: one byte holding its kind and its
//     flags, its term, the operands its kind carries (msgOperands), and its
//     entry count.
//
// A message's offset into the pool is not written: tidy keeps the pool the
// queued messages' entries back to back in queue order, so DecodeState
// recomputes it. DecodeState reads the arrays straight into an exactly-sized
// W and Q and then runs validate, which refuses by name every record the
// accessors and handlers cannot step from.

// Header flag bits.
const (
	hdrSnapConflict = 1 << iota
	hdrRead
	hdrReadBad
)

// kindBits is how many low bits of a message's first byte hold its kind; its
// flags are the bits above.
const kindBits = 3

// AppendState implements spec.StateCodec.
func (m *Machine) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*State)
	var hdr byte
	if s.SnapConflictInstall {
		hdr |= hdrSnapConflict
	}
	lr := s.lastRead()
	if lr != (kvRead{}) {
		hdr |= hdrRead
		if lr.Bad {
			hdr |= hdrReadBad
		}
	}
	dst = append(dst, hdr)
	if hdr&hdrRead != 0 {
		dst = binary.AppendVarint(dst, int64(lr.Node))
		dst = spec.AppendStr(dst, lr.Key)
		dst = spec.AppendStr(dst, lr.Val)
		dst = spec.AppendStr(dst, lr.Want)
	}
	dst = s.Counters.AppendTo(dst)
	dst = spec.AppendStr(dst, s.Viol.Flag)
	dst = binary.AppendUvarint(dst, uint64(len(s.W)))
	for _, w := range s.W {
		dst = appendWord(dst, w)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Q)))
	for k := range s.Q {
		p := &s.Q[k]
		dst = append(dst, p.kind|p.flags<<kindBits)
		dst = appendWord(dst, uint32(p.term))
		ops := [...]int32{p.a, p.b, p.c}
		for _, o := range ops[:msgOperands[p.kind]] {
			dst = appendWord(dst, uint32(o))
		}
		dst = binary.AppendUvarint(dst, uint64(p.elen))
	}
	return dst
}

// appendWord appends w as the zigzag varint of its int32.
func appendWord(dst []byte, w uint32) []byte {
	if z := w<<1 ^ uint32(int32(w)>>31); z < 0x80 {
		return append(dst, byte(z))
	}
	return binary.AppendVarint(dst, int64(int32(w)))
}

// DecodeState implements spec.StateCodec.
func (m *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	n := m.n
	s := m.header()
	d := &spec.Decoder{Src: src}

	hdr := d.Byte("header")
	if hdr&^(hdrSnapConflict|hdrRead|hdrReadBad) != 0 || hdr&(hdrRead|hdrReadBad) == hdrReadBad {
		d.Failf("header byte %#x", hdr)
	}
	s.SnapConflictInstall = hdr&hdrSnapConflict != 0
	if hdr&hdrRead != 0 {
		lr := kvRead{Node: d.Node("lastReadNode", n), Bad: hdr&hdrReadBad != 0}
		if lr.Node < 0 {
			d.Failf("lastReadNode %d: not a node", lr.Node)
		}
		lr.Key = d.Str("lastReadKey")
		lr.Val = d.Str("lastReadVal")
		lr.Want = d.Str("lastReadWant")
		if lr == (kvRead{}) {
			d.Failf("lastRead flagged present but empty")
		}
		s.LastRead = &lr
	}
	s.Counters.Decode(d)
	s.Viol.Flag = d.Str("violation")

	words := d.Len("record")
	if min := s.base + raftWords(n); d.Err == nil && words < min {
		d.Failf("record of %d words, want at least %d", words, min)
	}
	if d.Err != nil {
		return nil, nil, fmt.Errorf("raftbase: %w", d.Err)
	}
	s.Reset(n, words-s.base)
	in := d.Src
	for k := range s.W {
		if len(in) > 0 && in[0] < 0x80 { // one byte: the zigzag of -64..63
			b := uint32(in[0])
			s.W[k] = b>>1 ^ -(b & 1)
			in = in[1:]
			continue
		}
		v, c := binary.Varint(in)
		if c <= 0 || v != int64(int32(v)) {
			d.Failf("record word %d: truncated or beyond 32 bits", k)
			return nil, nil, fmt.Errorf("raftbase: %w", d.Err)
		}
		s.W[k] = uint32(int32(v))
		in = in[c:]
	}
	d.Src = in

	s.Q = make([]packedMsg, d.Len("queue"))
	off := 0
	for k := 0; k < len(s.Q) && d.Err == nil; k++ {
		p := &s.Q[k]
		b := d.Byte("msg kind")
		p.kind, p.flags = b&(1<<kindBits-1), b>>kindBits
		if int(p.kind) >= len(msgTypes) {
			d.Failf("unknown message type code %d", p.kind)
			break
		}
		ops := [...]*int32{&p.term, &p.a, &p.b, &p.c}
		for _, o := range ops[:1+msgOperands[p.kind]] {
			*o = d.Int32("msg operand")
		}
		elen := d.Uvarint("msg entries")
		if elen > math.MaxUint16 {
			d.Failf("msg entries %d: beyond the %d a message carries", elen, math.MaxUint16)
		}
		if p.elen = uint16(elen); p.elen > 0 {
			p.eoff = uint32(off)
			off += 2 * int(p.elen)
		}
	}
	if d.Err == nil {
		if err := s.validate(); err != nil {
			d.Failf("%w", err)
		}
	}
	if d.Err != nil {
		return nil, nil, fmt.Errorf("raftbase: %w", d.Err)
	}
	return s, d.Src, nil
}

// validate reports, by name, the first part of s's record that the
// accessors and handlers cannot step from (on top of what spec.Net.Validate
// refuses of the network's words): a role that is none of the four, a vote
// naming no node, a vote set or row presence set naming a node past the
// arity, a vote set without its own node, a term or index beyond
// spec.MaxInt (in a node's fields, its rows, an entry or a message), a region
// ending outside the record or splitting an entry, an entry value outside
// the machine's vocabulary, under snapshots a commit index past the log
// (compaction would cut entries that are not there), a message flag outside
// its kind, or a message pool that is not exactly the queued messages'
// entries. DecodeState runs it on
// every state it reads. (Commit past the log is left alone without
// snapshots: the AsyncRaft#2 log erase reaches it, and nothing else cuts a
// log at the commit index.)
func (s *State) validate() error {
	n := s.n
	if err := s.Net.Validate(); err != nil {
		return err
	}
	if len(s.W) < s.base+raftWords(n) {
		return fmt.Errorf("record of %d words, want at least %d", len(s.W), s.base+raftWords(n))
	}
	all := spec.NodeSet(1)<<n - 1
	for i := 0; i < n; i++ {
		if r := s.role(i); r < Follower || r > Leader {
			return fmt.Errorf("node %d: role %d is not a role", i, r)
		}
		for _, f := range [...]int{fTerm, fCommit, fSnapIdx, fSnapTerm, fDurTerm} {
			if v := s.get(f, i); !bounded(v) {
				return fmt.Errorf("node %d: %s %d is beyond ±%d", i, fieldNames[f], v, spec.MaxInt)
			}
		}
		for p := 0; p < n; p++ {
			if !bounded(s.next(i, p)) || !bounded(s.match(i, p)) {
				return fmt.Errorf("node %d: next/match of %d beyond ±%d", i, p, spec.MaxInt)
			}
		}
		for f, v := range [...]int{s.votedFor(i), s.durVote(i)} {
			if v < -1 || v >= n {
				return fmt.Errorf("node %d: %s %d names no node", i, [...]string{"votedFor", "durVote"}[f], v)
			}
		}
		for f, set := range [...]spec.NodeSet{s.votes(i), s.preVotes(i)} {
			name := [...]string{"votes", "preVotes"}[f]
			if set&^all != 0 {
				return fmt.Errorf("node %d: %s %v names a node past %d", i, name, set, n-1)
			}
			if set != 0 && !set.Has(i) {
				return fmt.Errorf("node %d: %s %v lacks the node itself", i, name, set)
			}
		}
	}
	if rows := s.nextRows() | s.matchRows(); rows&^all != 0 {
		return fmt.Errorf("next/match rows of %v name a node past %d", rows, n-1)
	}
	nvals := uint32(len(s.vocab().vals))
	start := s.base + raftWords(n)
	for r, end := range s.W[s.base+endsAt(n):][:numRegions(n)] {
		if e := int(end); e < start || e > len(s.W) || (e-start)%2 != 0 {
			return fmt.Errorf("%s ends at word %d, outside [%d, %d] or within an entry", regionName(n, r), e, start, len(s.W))
		}
		for k := start; k < int(end); k += 2 {
			if !bounded(int(int32(s.W[k]))) {
				return fmt.Errorf("%s: term %d is beyond ±%d", regionName(n, r), int32(s.W[k]), spec.MaxInt)
			}
			if s.W[k+1] >= nvals {
				return fmt.Errorf("%s: value %d is not in the machine's vocabulary of %d", regionName(n, r), s.W[k+1], nvals)
			}
		}
		start = int(end)
	}
	if start != len(s.W) {
		return fmt.Errorf("%d words follow the last region", len(s.W)-start)
	}
	for i := 0; i < n && s.snapshots; i++ {
		if s.commit(i) > s.lastIndex(i) {
			return fmt.Errorf("node %d: commit %d lies past its last index %d", i, s.commit(i), s.lastIndex(i))
		}
	}
	entries := 0
	for k := range s.Q {
		p := &s.Q[k]
		if int(p.kind) >= len(msgTypes) {
			return fmt.Errorf("message %d: unknown message type code %d", k, p.kind)
		}
		if p.flags&^msgFlags[p.kind] != 0 {
			return fmt.Errorf("message %d: %s carries flags %#x outside its kind", k, msgTypes[p.kind], p.flags)
		}
		for _, v := range [...]int32{p.term, p.a, p.b, p.c} {
			if !bounded(int(v)) {
				return fmt.Errorf("message %d: %s carries %d, beyond ±%d", k, msgTypes[p.kind], v, spec.MaxInt)
			}
		}
		entries += int(p.elen)
	}
	if got := s.count(pool(n)); got != entries {
		return fmt.Errorf("message pool holds %d entries, the queued messages %d", got, entries)
	}
	return nil
}

// bounded reports whether v is a term or an index a handler can compute
// with (spec.MaxInt).
func bounded(v int) bool { return v >= -spec.MaxInt && v <= spec.MaxInt }

// fieldNames names the per-node fields in errors.
var fieldNames = [numFields]string{"role", "term", "votedFor", "commit", "snapIdx", "snapTerm", "durTerm", "durVote"}

// regionName names region r of an n-node record in errors.
func regionName(n, r int) string {
	switch {
	case r < n:
		return fmt.Sprintf("log of node %d", r)
	case r < 2*n:
		return fmt.Sprintf("durable log of node %d", r-n)
	case r == committed(n):
		return "committed log"
	default:
		return "message pool"
	}
}
