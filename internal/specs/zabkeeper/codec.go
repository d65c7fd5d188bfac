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
	vb := func(b bool) { dst = spec.AppendBool(dst, b) }
	vs := func(str string) { dst = spec.AppendStr(dst, str) }
	vote := func(v Vote) {
		vi(v.Leader)
		vi(v.Epoch)
		vi(v.Counter)
	}
	txns := func(ts []Txn) { dst = appendTxns(dst, ts) }

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
	dst = spec.AppendChannels(dst, &s.Net)
	txns(s.Committed)
	dst = s.Counters.AppendTo(dst)
	vs(s.Viol.Flag)
	return dst
}

func appendTxns(dst []byte, ts []Txn) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = binary.AppendVarint(dst, int64(t.Epoch))
		dst = binary.AppendVarint(dst, int64(t.Counter))
		dst = spec.AppendStr(dst, t.Value)
	}
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
	spec.DecodeChannels(&s.Net, d)
	s.Committed = decodeTxns(d, "committed")
	s.Counters.Decode(d)
	s.Viol.Flag = d.Str("violation")
	if d.Err != nil {
		return nil, nil, fmt.Errorf("zabkeeper: %w", d.Err)
	}
	return s, d.Src, nil
}
