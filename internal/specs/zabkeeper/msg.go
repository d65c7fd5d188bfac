package zabkeeper

import (
	"encoding/binary"
	"fmt"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Msg is the specification-level message: the wide form handlers build and
// receive, by value. A queued message is held as a packedMsg: a handler sends
// mustPack(msg), a delivery unpacks.
type Msg struct {
	Type string // "notif", "finfo", "sync", "ackld", "prop", "ack", "commit"
	// notif
	Round int
	State int
	Vote  Vote
	// finfo / ackld
	Epoch   int
	Counter int
	// sync
	NewEpoch  int
	History   []Txn
	Committed int
	// prop
	Value string
	// commit
	Index int
}

// hashIDFree mixes every Msg field except Vote.Leader (the one node id a
// message can carry; it lives in the combine residue).
func (m *Msg) hashIDFree(h *fp.Hasher) {
	h.WriteString(m.Type)
	h.WriteInt(m.Round)
	h.WriteInt(m.State)
	h.WriteInt(m.Vote.Epoch)
	h.WriteInt(m.Vote.Counter)
	h.WriteInt(m.Epoch)
	h.WriteInt(m.Counter)
	h.WriteInt(m.NewEpoch)
	h.WriteInt(len(m.History))
	for _, t := range m.History {
		h.WriteInt(t.Epoch)
		h.WriteInt(t.Counter)
		h.WriteString(t.Value)
	}
	h.WriteInt(m.Committed)
	h.WriteString(m.Value)
	h.WriteInt(m.Index)
}

// msgTypes is the Msg.Type vocabulary; the index is the packed kind and the
// codec's wire code.
var msgTypes = [...]string{"notif", "finfo", "sync", "ackld", "prop", "ack", "commit"}

const (
	kindNotif = iota
	kindFInfo
	kindSync
	kindAckLd
	kindProp
	kindAck
	kindCommit
)

func msgTypeCode(t string) (uint8, bool) {
	for i, s := range msgTypes {
		if s == t {
			return uint8(i), true
		}
	}
	return 0, false
}

// packedMsg is a queued message: what a state stores per message in flight,
// 56 bytes against Msg's 136. A kind uses at most three of Msg's integers
// beside a notification's sender state, so those share the operands a, b, c:
//
//	notif   a=Round     b=Vote.Epoch  c=Vote.Counter  state
//	finfo   a=Epoch     b=Counter     c=NewEpoch
//	sync    a=NewEpoch  b=Committed
//	ackld   a=Epoch     b=Counter
//	prop    a=Epoch     b=Counter
//	ack     a=Epoch     b=Counter
//	commit  a=Index
//
// The vote leader, History and Value are carried for every kind (Permute
// maps the leader of every message, not only a notification's). Hashing and
// encoding go through unpack, so both see exactly the Msg that was sent.
type packedMsg struct {
	history []Txn
	value   string
	a, b, c int32
	leader  int16 // Vote.Leader
	kind    uint8
	state   uint8 // notif: the sender's server state
}

// pack returns the stored form of m. ok is false when unpack would not give m
// back: its type is unknown, a field outside its kind's set is non-zero, or
// an integer does not fit the width it is stored in.
func pack(m Msg) (p packedMsg, ok bool) {
	kind, ok := msgTypeCode(m.Type)
	if !ok {
		return p, false
	}
	p = packedMsg{history: m.History, value: m.Value, leader: int16(m.Vote.Leader), kind: kind}
	switch kind {
	case kindNotif:
		p.a, p.b, p.c = int32(m.Round), int32(m.Vote.Epoch), int32(m.Vote.Counter)
		p.state = uint8(m.State)
	case kindFInfo:
		p.a, p.b, p.c = int32(m.Epoch), int32(m.Counter), int32(m.NewEpoch)
	case kindSync:
		p.a, p.b = int32(m.NewEpoch), int32(m.Committed)
	case kindAckLd, kindProp, kindAck:
		p.a, p.b = int32(m.Epoch), int32(m.Counter)
	case kindCommit:
		p.a = int32(m.Index)
	}
	u := p.unpack()
	ok = u.Round == m.Round && u.State == m.State && u.Vote == m.Vote &&
		u.Epoch == m.Epoch && u.Counter == m.Counter &&
		u.NewEpoch == m.NewEpoch && u.Committed == m.Committed && u.Index == m.Index
	return p, ok
}

// mustPack is pack for a message a handler built: one that does not survive
// packing is a bug in the handler (an operand its kind does not carry, which
// would otherwise be dropped silently), so it panics like dispatch does on an
// unknown type.
func mustPack(m Msg) packedMsg {
	p, ok := pack(m)
	if !ok {
		panic(fmt.Sprintf("zabkeeper: message %+v cannot be stored: unknown type, a field outside its kind, or an integer beyond its stored width", m))
	}
	return p
}

// unpack returns the Msg p was packed from.
func (p *packedMsg) unpack() Msg {
	m := Msg{Type: msgTypes[p.kind], History: p.history, Value: p.value}
	m.Vote.Leader = int(p.leader)
	a, b, c := int(p.a), int(p.b), int(p.c)
	switch p.kind {
	case kindNotif:
		m.Round, m.Vote.Epoch, m.Vote.Counter = a, b, c
		m.State = int(p.state)
	case kindFInfo:
		m.Epoch, m.Counter, m.NewEpoch = a, b, c
	case kindSync:
		m.NewEpoch, m.Committed = a, b
	case kindAckLd, kindProp, kindAck:
		m.Epoch, m.Counter = a, b
	case kindCommit:
		m.Index = a
	}
	return m
}

// Hash implements spec.Message: every field but the vote leader, which
// OrbitCombine writes in the node-id residue.
func (p packedMsg) Hash(h fp.Hasher, _ *State) fp.Hasher {
	m := p.unpack()
	m.hashIDFree(&h)
	return h
}

// Permuted implements spec.Message: the vote leader, carried by every kind,
// mapped through perm (a negative absence marker passes through).
func (p packedMsg) Permuted(perm []int) packedMsg {
	if p.leader >= 0 {
		p.leader = int16(perm[p.leader])
	}
	return p
}

// AppendTo implements spec.Message. The wire carries the wide message, its
// kind code and then every field in Msg order, as it did before queues
// stored them packed.
func (p packedMsg) AppendTo(dst []byte, _ *State) []byte {
	m := p.unpack()
	dst = append(dst, p.kind)
	for _, v := range [...]int{m.Round, m.State, m.Vote.Leader, m.Vote.Epoch, m.Vote.Counter, m.Epoch, m.Counter, m.NewEpoch} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	dst = appendTxns(dst, m.History)
	dst = binary.AppendVarint(dst, int64(m.Committed))
	dst = spec.AppendStr(dst, m.Value)
	return binary.AppendVarint(dst, int64(m.Index))
}

// DecodeFrom implements spec.Message. A queue stores a message packed; one
// that packing would alter (a field its kind does not carry, an integer
// beyond its stored width) is refused, not narrowed into another message.
func (packedMsg) DecodeFrom(src []byte, n int, _ *State) (packedMsg, []byte, error) {
	var msg Msg
	d := &spec.Decoder{Src: src}
	code := d.Byte("msg type")
	if int(code) >= len(msgTypes) {
		d.Failf("unknown message type code %d", code)
		return packedMsg{}, nil, d.Err
	}
	msg.Type = msgTypes[code]
	msg.Round = d.Int("msg round")
	msg.State = d.Int("msg state")
	msg.Vote = decodeVote(d, "msg vote", n)
	msg.Epoch = d.Int("msg epoch")
	msg.Counter = d.Int("msg counter")
	msg.NewEpoch = d.Int("msg newEpoch")
	msg.History = decodeTxns(d, "msg history")
	msg.Committed = d.Int("msg committed")
	msg.Value = d.Str("msg value")
	msg.Index = d.Int("msg index")
	p, ok := pack(msg)
	if !ok && d.Err == nil {
		d.Failf("%s message carries a field outside its kind or beyond its stored width", msg.Type)
	}
	return p, d.Src, d.Err
}
