package zabkeeper

import (
	"encoding/binary"
	"fmt"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// spec.StateCodec for the zabkeeper state, mirroring raftbase/codec.go: a
// compact varint encoding that lets frontiers spill to disk, travel between
// cluster peers, and ride in checkpoints. The node count is the decoding
// machine's, not the encoding's — an encoding is only meaningful to a
// machine built from the same configuration, which the explorer's
// checkpoint/cluster compatibility digests enforce.
//
// Acked rows are nil for non-leaders and n-long for leaders; permute branches
// on that, so they are encoded with a 0 marker for nil and len+1 otherwise.
// Synced is written the same way — the state holds it as a set per node, the
// empty set standing for the nil row — so the bytes are what they were when
// it was a boolean row. Histories, channel queues, and Committed are only ever
// read through len, so a plain length suffices and empty decodes to nil.

// AppendState implements spec.StateCodec.
func (m *Machine) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*State)
	n := s.n
	vi := func(v int) { dst = binary.AppendVarint(dst, int64(v)) }
	vb := func(b bool) {
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	vs := func(str string) {
		dst = binary.AppendUvarint(dst, uint64(len(str)))
		dst = append(dst, str...)
	}
	vote := func(v Vote) {
		vi(v.Leader)
		vi(v.Epoch)
		vi(v.Counter)
	}
	txns := func(ts []Txn) {
		dst = binary.AppendUvarint(dst, uint64(len(ts)))
		for _, t := range ts {
			vi(t.Epoch)
			vi(t.Counter)
			vs(t.Value)
		}
	}

	for i := 0; i < n; i++ {
		vi(s.ZState[i])
		vi(s.Round[i])
		vote(s.Vote[i])
		vi(s.Epoch[i])
		vi(s.Commit[i])
		vi(s.LeaderID[i])
		vi(s.PendEpoch[i])
		vi(s.Counter[i])
		vb(s.Activated.Has(i))
		vb(s.Up.Has(i))
		txns(s.History[i])
		for j := 0; j < n; j++ {
			vote(s.Recv[i][j])
		}
		dst = spec.AppendNodeSetRow(dst, s.Synced[i], n)
		if s.Acked[i] == nil {
			dst = append(dst, 0)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(s.Acked[i]))+1)
			for _, v := range s.Acked[i] {
				vi(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vb(s.Cut[i].Has(j))
			vb(s.Part[i].Has(j))
			q := s.Chan[i][j]
			dst = binary.AppendUvarint(dst, uint64(len(q)))
			for k := range q {
				// The wire carries the wide message, every field in Msg
				// order, as it did before queues stored them packed.
				msg := q[k].unpack()
				dst = append(dst, q[k].kind)
				vi(msg.Round)
				vi(msg.State)
				vote(msg.Vote)
				vi(msg.Epoch)
				vi(msg.Counter)
				vi(msg.NewEpoch)
				txns(msg.History)
				vi(msg.Committed)
				vs(msg.Value)
				vi(msg.Index)
			}
		}
	}
	txns(s.Committed)
	dst = s.Counters.AppendTo(dst)
	vs(s.Viol.Flag)
	return dst
}

func decodeVote(d *spec.Decoder, what string, n int) Vote {
	return Vote{Leader: d.Node(what, n), Epoch: d.Int(what), Counter: d.Int(what)}
}

func decodeTxns(d *spec.Decoder, what string) []Txn {
	ln := d.Len(what)
	if ln == 0 {
		return nil
	}
	ts := make([]Txn, ln)
	for i := range ts {
		ts[i] = Txn{Epoch: d.Int(what), Counter: d.Int(what), Value: d.Str(what)}
	}
	return ts
}

// DecodeState implements spec.StateCodec.
func (m *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	n := m.n
	s := newState(n)
	d := &spec.Decoder{Src: src}

	for i := 0; i < n; i++ {
		s.ZState[i] = d.Int("zstate")
		s.Round[i] = d.Int("round")
		s.Vote[i] = decodeVote(d, "vote", n)
		s.Epoch[i] = d.Int("epoch")
		s.Commit[i] = d.Int("commit")
		s.LeaderID[i] = d.Node("leaderID", n)
		s.PendEpoch[i] = d.Int("pendEpoch")
		s.Counter[i] = d.Int("counter")
		if d.Bool("activated") {
			s.Activated.Add(i)
		}
		if !d.Bool("up") {
			s.Up.Del(i)
		}
		s.History[i] = decodeTxns(d, "history")
		for j := 0; j < n; j++ {
			s.Recv[i][j] = decodeVote(d, "recv", n)
		}
		s.Synced[i] = d.NodeSetRow("synced", n, i)
		if d.Row("acked", n) {
			s.Acked[i] = make([]int, n)
			for j := range s.Acked[i] {
				s.Acked[i][j] = d.Int("acked")
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d.Bool("cut") {
				s.Cut[i].Add(j)
			}
			if d.Bool("part") {
				s.Part[i].Add(j)
			}
			qn := d.Len("chan")
			if qn == 0 {
				continue
			}
			q := make([]packedMsg, qn)
			for k := range q {
				var msg Msg
				code := d.Byte("msg type")
				if int(code) >= len(msgTypes) {
					d.Failf("unknown message type code %d", code)
					break
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
				// A queue stores a message packed; one that packing would
				// alter (a field its kind does not carry, an integer beyond
				// its stored width) is refused, not narrowed into another
				// message.
				var ok bool
				if q[k], ok = pack(msg); !ok && d.Err == nil {
					d.Failf("%s message carries a field outside its kind or beyond its stored width", msg.Type)
				}
			}
			s.Chan[i][j] = q
		}
	}
	s.Committed = decodeTxns(d, "committed")
	s.Counters.Decode(d)
	s.Viol.Flag = d.Str("violation")
	if d.Err != nil {
		return nil, nil, fmt.Errorf("zabkeeper: %w", d.Err)
	}
	return s, d.Src, nil
}
