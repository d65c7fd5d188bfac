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
		vb(s.Up().Has(i))
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
	dst = spec.AppendChannels(dst, &s.Net, s)
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

// decodeVote reads a vote, whose leader is a node, or -1 where the vote may
// be absent (a row of received votes).
func decodeVote(d *spec.Decoder, what string, n int, mayBeAbsent bool) Vote {
	v := Vote{Leader: d.Node(what, n), Epoch: d.Bounded(what), Counter: d.Bounded(what)}
	if d.Err == nil && (v.Leader < -1 || v.Leader == -1 && !mayBeAbsent) {
		d.Failf("%s for node %d: not a node", what, v.Leader)
	}
	return v
}

// decodeZState reads a server state, refusing one that is none of the three.
func decodeZState(d *spec.Decoder, what string) int {
	z := d.Int(what)
	if z < Looking || z > Leading {
		d.Failf("%s %d is not a server state", what, z)
		return Looking
	}
	return z
}

func decodeTxns(d *spec.Decoder, what string) []Txn {
	ln := d.Len(what)
	if ln == 0 {
		return nil
	}
	ts := make([]Txn, ln)
	for i := range ts {
		ts[i] = Txn{Epoch: d.Bounded(what), Counter: d.Bounded(what), Value: d.Str(what)}
	}
	return ts
}

// DecodeState implements spec.StateCodec.
func (m *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	n := m.n
	s := newState(n)
	d := &spec.Decoder{Src: src}

	for i := 0; i < n; i++ {
		s.ZState[i] = decodeZState(d, "zstate")
		s.Round[i] = d.Bounded("round")
		s.Vote[i] = decodeVote(d, "vote", n, false)
		s.Epoch[i] = d.Bounded("epoch")
		s.Commit[i] = d.Bounded("commit")
		if s.LeaderID[i] = d.Node("leaderID", n); s.LeaderID[i] < -1 {
			d.Failf("leaderID %d: not a node", s.LeaderID[i])
		}
		s.PendEpoch[i] = d.Bounded("pendEpoch")
		s.Counter[i] = d.Bounded("counter")
		if d.Bool("activated") {
			s.Activated.Add(i)
		}
		if !d.Bool("up") {
			s.SetUp(s.Up() &^ spec.SingleNode(i))
		}
		s.History[i] = decodeTxns(d, "history")
		for j := 0; j < n; j++ {
			s.Recv[i][j] = decodeVote(d, "recv", n, true)
		}
		s.Synced[i] = d.NodeSetRow("synced", n, i)
		if d.Row("acked", n) {
			s.Acked[i] = make([]int, n)
			for j := range s.Acked[i] {
				s.Acked[i][j] = d.Bounded("acked")
			}
		}
		// What the handlers index by: a committed prefix of the history,
		// and a leader's acked row.
		if c := s.Commit[i]; d.Err == nil && (c < 0 || c > len(s.History[i])) {
			d.Failf("node %d: commit %d outside its history of %d", i, c, len(s.History[i]))
		}
		if d.Err == nil && s.ZState[i] == Leading && s.Acked[i] == nil {
			d.Failf("node %d: leading without an acked row", i)
		}
	}
	spec.DecodeChannels(&s.Net, d, s)
	s.Committed = decodeTxns(d, "committed")
	s.Counters.Decode(d)
	s.Viol.Flag = d.Str("violation")
	if d.Err != nil {
		return nil, nil, fmt.Errorf("zabkeeper: %w", d.Err)
	}
	return s, d.Src, nil
}
