package raftbase

import (
	"fmt"
	"math"

	"github.com/sandtable-go/sandtable/internal/fp"
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

// msgOperands is how many of the operands a, b, c each kind carries, and
// msgFlags the flag bits it may set (see packedMsg).
var (
	msgOperands = [...]int{kindRV: 2, kindRVR: 0, kindAE: 3, kindAER: 1, kindSnap: 2}
	msgFlags    = [...]uint8{kindRV: flagPre, kindRVR: flagPre | flagGranted, kindAE: flagRetry, kindAER: flagSuccess, kindSnap: 0}
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
// A kind's unused operands are zero and its unused flag bits clear (pack
// refuses a Msg that would need them, and DecodeState a record that has
// them), so Hash reads the Msg that was sent straight from the stored form.
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
	p = packedMsg{eoff: uint32(m.Ents.Off), elen: uint16(m.Ents.N), term: int32(m.Term), kind: kind,
		flags: flagIf(flagPre, m.Pre) | flagIf(flagGranted, m.Granted) | flagIf(flagSuccess, m.Flag) | flagIf(flagRetry, m.Retry)}
	switch kind {
	case kindRV:
		p.a, p.b = int32(m.LastIndex), int32(m.LastTerm)
	case kindAE:
		p.a, p.b, p.c = int32(m.PrevIndex), int32(m.PrevTerm), int32(m.Commit)
	case kindAER:
		p.a = int32(m.NextIndex)
	case kindSnap:
		p.a, p.b = int32(m.SnapIndex), int32(m.SnapTerm)
	}
	return p, p.flags&^msgFlags[kind] == 0 && p.unpack() == m
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
	m := Msg{Type: msgTypes[p.kind], Term: int(p.term), Ents: EntryRange{Off: int(p.eoff), N: int(p.elen)},
		Pre: p.flags&flagPre != 0, Granted: p.flags&flagGranted != 0,
		Flag: p.flags&flagSuccess != 0, Retry: p.flags&flagRetry != 0}
	a, b, c := int(p.a), int(p.b), int(p.c)
	switch p.kind {
	case kindRV:
		m.LastIndex, m.LastTerm = a, b
	case kindAE:
		m.PrevIndex, m.PrevTerm, m.Commit = a, b, c
	case kindAER:
		m.NextIndex = a
	case kindSnap:
		m.SnapIndex, m.SnapTerm = a, b
	}
	return m
}

// Hash implements spec.Message: the stream of the Msg p stores, every field
// in declaration order and the entries as their count and then term and value
// each, written from the stored form (raftbase messages carry no node ids).
func (p packedMsg) Hash(h fp.Hasher, s *State) fp.Hasher {
	var lastIndex, lastTerm, prevIndex, prevTerm, commit, nextIndex, snapIndex, snapTerm int32
	switch p.kind {
	case kindRV:
		lastIndex, lastTerm = p.a, p.b
	case kindAE:
		prevIndex, prevTerm, commit = p.a, p.b, p.c
	case kindAER:
		nextIndex = p.a
	case kindSnap:
		snapIndex, snapTerm = p.a, p.b
	}
	h.WriteString(msgTypes[p.kind])
	h.WriteInt(int(p.term))
	h.WriteInt(int(lastIndex))
	h.WriteInt(int(lastTerm))
	h.WriteBool(p.flags&flagPre != 0)
	h.WriteBool(p.flags&flagGranted != 0)
	h.WriteInt(int(prevIndex))
	h.WriteInt(int(prevTerm))
	h.WriteInt(int(p.elen))
	if p.elen > 0 {
		vals := s.vocab().vals
		w := s.msgWords(EntryRange{Off: int(p.eoff), N: int(p.elen)})
		for k := 0; k < len(w); k += 2 {
			h.WriteInt(int(int32(w[k])))
			h.WriteString(vals[w[k+1]])
		}
	}
	h.WriteInt(int(commit))
	h.WriteBool(p.flags&flagSuccess != 0)
	h.WriteInt(int(nextIndex))
	h.WriteBool(p.flags&flagRetry != 0)
	h.WriteInt(int(snapIndex))
	h.WriteInt(int(snapTerm))
	return h
}

// Permuted implements spec.Message: raftbase messages carry no node ids.
func (p packedMsg) Permuted([]int) packedMsg { return p }
