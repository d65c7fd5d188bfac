package raftbase

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Msg is the specification-level message: the wide form handlers build and
// receive, by value. All kinds share one struct. A queued message is held as
// a packedMsg: a handler sends mustPack(msg), a delivery unpacks.
//
// An AppendEntries' entries are not in the message: they are Ents.N entries
// of the state's message pool, from word Ents.Off of the pool on. A handler
// puts them there (State.poolLog) before it sends, and a delivered message's
// entries stay readable until the successor is built (State.tidy runs
// after the handler), so a queued message holds no pointer and a send copies
// no slice.
type Msg struct {
	Type      string // "rv", "rvr", "ae", "aer", "snap"
	Term      int
	LastIndex int        // rv
	LastTerm  int        // rv
	Pre       bool       // rv/rvr: PreVote round
	Granted   bool       // rvr
	PrevIndex int        // ae
	PrevTerm  int        // ae
	Ents      EntryRange // ae
	Commit    int        // ae
	Flag      bool       // aer: success
	NextIndex int        // aer: follower hint
	Retry     bool       // ae: sent as a retry after a rejection (craft)
	SnapIndex int        // snap
	SnapTerm  int        // snap
}

// EntryRange locates a message's entries in its state's message pool: N
// entries, from word Off of the pool on.
type EntryRange struct{ Off, N int }

// hashMsg mixes m into h, its entries read from s's pool: every field in
// declaration order, the entries as their count and then term and value
// each.
func (s *State) hashMsg(h *fp.Hasher, m *Msg) {
	h.WriteString(m.Type)
	h.WriteInt(m.Term)
	h.WriteInt(m.LastIndex)
	h.WriteInt(m.LastTerm)
	h.WriteBool(m.Pre)
	h.WriteBool(m.Granted)
	h.WriteInt(m.PrevIndex)
	h.WriteInt(m.PrevTerm)
	h.WriteInt(m.Ents.N)
	if m.Ents.N > 0 {
		vals := s.vocab().vals
		w := s.msgWords(m.Ents)
		for k := 0; k < len(w); k += 2 {
			h.WriteInt(int(int32(w[k])))
			h.WriteString(vals[w[k+1]])
		}
	}
	h.WriteInt(m.Commit)
	h.WriteBool(m.Flag)
	h.WriteInt(m.NextIndex)
	h.WriteBool(m.Retry)
	h.WriteInt(m.SnapIndex)
	h.WriteInt(m.SnapTerm)
}

// msgWords returns the words of the entries e locates: term, value index,
// term, value index, ….
func (s *State) msgWords(e EntryRange) []uint32 {
	a, _ := s.span(pool(s.n))
	return s.W[a+e.Off : a+e.Off+2*e.N]
}

// msgTypes is the Msg.Type vocabulary; the index is the packed kind and the
// codec's wire code.
var msgTypes = [...]string{"rv", "rvr", "ae", "aer", "snap"}

const (
	kindRV = iota
	kindRVR
	kindAE
	kindAER
	kindSnap
)

func msgTypeCode(t string) (uint8, bool) {
	for i, s := range msgTypes {
		if s == t {
			return uint8(i), true
		}
	}
	return 0, false
}

// Flag bits of a packedMsg.
const (
	flagPre = 1 << iota
	flagGranted
	flagSuccess
	flagRetry
)

func flagIf(f uint8, on bool) uint8 {
	if on {
		return f
	}
	return 0
}

// packedMsg is a queued message: what a state stores per message in flight,
// a third of the Msg it unpacks to. A kind uses the term and at most three of
// Msg's other integers, so those share the operands a, b, c:
//
//	rv    a=LastIndex  b=LastTerm            Pre
//	rvr                                      Pre Granted
//	ae    a=PrevIndex  b=PrevTerm  c=Commit  Retry
//	aer   a=NextIndex                        Flag
//	snap  a=SnapIndex  b=SnapTerm
//
// Hashing and encoding go through unpack, so both see exactly the Msg that
// was sent.
type packedMsg struct {
	term    int32
	a, b, c int32
	eoff    uint32 // the entries' first word in the pool
	elen    uint16 // and their count
	kind    uint8
	flags   uint8
}

// pack returns the stored form of m. ok is false when unpack would not give m
// back: its type is unknown, a field outside its kind's set is non-zero, or
// an integer does not fit 32 bits. (Entries are carried for every kind.)
func pack(m Msg) (p packedMsg, ok bool) {
	kind, ok := msgTypeCode(m.Type)
	if !ok {
		return p, false
	}
	if m.Ents.Off < 0 || m.Ents.Off > math.MaxUint32 || m.Ents.N < 0 || m.Ents.N > math.MaxUint16 {
		return p, false
	}
	p = packedMsg{eoff: uint32(m.Ents.Off), elen: uint16(m.Ents.N), term: int32(m.Term), kind: kind}
	switch kind {
	case kindRV:
		p.a, p.b = int32(m.LastIndex), int32(m.LastTerm)
		p.flags = flagIf(flagPre, m.Pre)
	case kindRVR:
		p.flags = flagIf(flagPre, m.Pre) | flagIf(flagGranted, m.Granted)
	case kindAE:
		p.a, p.b, p.c = int32(m.PrevIndex), int32(m.PrevTerm), int32(m.Commit)
		p.flags = flagIf(flagRetry, m.Retry)
	case kindAER:
		p.a = int32(m.NextIndex)
		p.flags = flagIf(flagSuccess, m.Flag)
	case kindSnap:
		p.a, p.b = int32(m.SnapIndex), int32(m.SnapTerm)
	}
	u := p.unpack()
	ok = u.Term == m.Term &&
		u.LastIndex == m.LastIndex && u.LastTerm == m.LastTerm &&
		u.Pre == m.Pre && u.Granted == m.Granted &&
		u.PrevIndex == m.PrevIndex && u.PrevTerm == m.PrevTerm && u.Commit == m.Commit &&
		u.Flag == m.Flag && u.NextIndex == m.NextIndex && u.Retry == m.Retry &&
		u.SnapIndex == m.SnapIndex && u.SnapTerm == m.SnapTerm
	return p, ok
}

// mustPack is pack for a message a handler built: one that does not survive
// packing is a bug in the handler (an operand its kind does not carry, which
// would otherwise be dropped silently), so it panics, as dispatch does on a
// type it does not know.
func mustPack(m Msg) packedMsg {
	p, ok := pack(m)
	if !ok {
		panic(fmt.Sprintf("raftbase: message %+v cannot be stored: unknown type, a field outside its kind, or an integer beyond 32 bits", m))
	}
	return p
}

// unpack returns the Msg p was packed from.
func (p *packedMsg) unpack() Msg {
	m := Msg{Type: msgTypes[p.kind], Term: int(p.term), Ents: EntryRange{Off: int(p.eoff), N: int(p.elen)}}
	a, b, c := int(p.a), int(p.b), int(p.c)
	switch p.kind {
	case kindRV:
		m.LastIndex, m.LastTerm = a, b
		m.Pre = p.flags&flagPre != 0
	case kindRVR:
		m.Pre = p.flags&flagPre != 0
		m.Granted = p.flags&flagGranted != 0
	case kindAE:
		m.PrevIndex, m.PrevTerm, m.Commit = a, b, c
		m.Retry = p.flags&flagRetry != 0
	case kindAER:
		m.NextIndex = a
		m.Flag = p.flags&flagSuccess != 0
	case kindSnap:
		m.SnapIndex, m.SnapTerm = a, b
	}
	return m
}

// Hash implements spec.Message: the hash of the Msg p stores (raftbase
// messages carry no node ids).
func (p packedMsg) Hash(h fp.Hasher, s *State) fp.Hasher {
	m := p.unpack()
	s.hashMsg(&h, &m)
	return h
}

// Permuted implements spec.Message: raftbase messages carry no node ids.
func (p packedMsg) Permuted([]int) packedMsg { return p }

// AppendTo implements spec.Message. The wire carries the wide message, its
// kind code and then every field in Msg order, the entries in place of Ents,
// as it did before queues stored them packed.
func (p packedMsg) AppendTo(dst []byte, s *State) []byte {
	m := p.unpack()
	dst = append(dst, p.kind)
	dst = binary.AppendVarint(dst, int64(m.Term))
	dst = binary.AppendVarint(dst, int64(m.LastIndex))
	dst = binary.AppendVarint(dst, int64(m.LastTerm))
	dst = spec.AppendBool(dst, m.Pre)
	dst = spec.AppendBool(dst, m.Granted)
	dst = binary.AppendVarint(dst, int64(m.PrevIndex))
	dst = binary.AppendVarint(dst, int64(m.PrevTerm))
	dst = s.appendEntries(dst, s.msgWords(m.Ents))
	dst = binary.AppendVarint(dst, int64(m.Commit))
	dst = spec.AppendBool(dst, m.Flag)
	dst = binary.AppendVarint(dst, int64(m.NextIndex))
	dst = spec.AppendBool(dst, m.Retry)
	dst = binary.AppendVarint(dst, int64(m.SnapIndex))
	return binary.AppendVarint(dst, int64(m.SnapTerm))
}

// DecodeFrom implements spec.Message: the entries go to the end of s's
// message pool. A queue stores a message packed; one that packing would
// alter (a field its kind does not carry, an integer beyond 32 bits) is
// refused, not narrowed into another message.
func (packedMsg) DecodeFrom(src []byte, _ int, s *State) (packedMsg, []byte, error) {
	var msg Msg
	d := &spec.Decoder{Src: src}
	code := d.Byte("msg type")
	if int(code) >= len(msgTypes) {
		d.Failf("unknown message type code %d", code)
		return packedMsg{}, nil, d.Err
	}
	msg.Type = msgTypes[code]
	msg.Term = d.Int("msg term")
	msg.LastIndex = d.Int("msg lastIndex")
	msg.LastTerm = d.Int("msg lastTerm")
	msg.Pre = d.Bool("msg pre")
	msg.Granted = d.Bool("msg granted")
	msg.PrevIndex = d.Int("msg prevIndex")
	msg.PrevTerm = d.Int("msg prevTerm")
	a, b := s.span(pool(s.n))
	if msg.Ents.N = s.decodeEntries(d, "msg entries", pool(s.n)); msg.Ents.N > 0 {
		msg.Ents.Off = b - a
	}
	msg.Commit = d.Int("msg commit")
	msg.Flag = d.Bool("msg flag")
	msg.NextIndex = d.Int("msg nextIndex")
	msg.Retry = d.Bool("msg retry")
	msg.SnapIndex = d.Int("msg snapIndex")
	msg.SnapTerm = d.Int("msg snapTerm")
	p, ok := pack(msg)
	if !ok && d.Err == nil {
		d.Failf("%s message carries a field outside its kind or beyond 32 bits", msg.Type)
	}
	return p, d.Src, d.Err
}
