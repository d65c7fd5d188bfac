package raftbase

import (
	"encoding/binary"
	"fmt"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// spec.StateCodec for the Raft-family states: a compact varint encoding that
// lets frontiers spill to disk (explorer -mem-budget) and travel between
// cluster peers. The machine's instantiation constants (node count, feature
// flags, durability) are NOT encoded — they are re-derived from the decoding
// machine's options, so an encoding is only meaningful to a machine built
// with the same Options, which is exactly the contract the explorer's
// checkpoint/cluster compatibility digests enforce.
//
// The encoding preserves nil-ness of the per-node Next/Match rows (a 0 marker
// for nil, len+1 otherwise): fingerprints and rendering treat nil and empty
// alike, but permute branches on nil-ness, so a decoded state must round-trip
// it exactly. Votes/PreVotes are written the same way — the state holds them
// as sets, the empty set standing for the nil row — so the bytes are what
// they were when these were boolean rows. Log rows, channel queues, and
// Committed only ever exist as nil-or-nonempty (see clone), so a plain length
// suffices.

// AppendState implements spec.StateCodec.
func (m *Machine) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*State)
	n := s.n
	vi := func(v int) { dst = binary.AppendVarint(dst, int64(v)) }
	vb := func(b bool) { dst = spec.AppendBool(dst, b) }
	vs := func(str string) { dst = spec.AppendStr(dst, str) }
	entries := func(es []Entry) { dst = appendEntries(dst, es) }
	intRow := func(row []int) {
		if row == nil {
			dst = append(dst, 0)
			return
		}
		dst = binary.AppendUvarint(dst, uint64(len(row))+1)
		for _, v := range row {
			vi(v)
		}
	}

	for i := 0; i < n; i++ {
		vi(s.Role[i])
		vi(s.Term[i])
		vi(s.VotedFor[i])
		vi(s.Commit[i])
		vi(s.SnapIdx[i])
		vi(s.SnapTerm[i])
		vi(s.DurTerm[i])
		vi(s.DurVote[i])
		vb(s.Up.Has(i))
	}
	for i := 0; i < n; i++ {
		entries(s.Log[i])
		entries(s.DurLog[i])
		dst = spec.AppendNodeSetRow(dst, s.Votes[i], n)
		dst = spec.AppendNodeSetRow(dst, s.PreVotes[i], n)
		intRow(s.Next[i])
		intRow(s.Match[i])
	}
	dst = spec.AppendChannels(dst, &s.Net)
	entries(s.Committed)
	vb(s.SnapConflictInstall)
	lr := s.lastRead()
	vi(lr.Node)
	vs(lr.Key)
	vs(lr.Val)
	vs(lr.Want)
	vb(lr.Bad)
	dst = s.Counters.AppendTo(dst)
	vs(s.Viol.Flag)
	return dst
}

func appendEntries(dst []byte, es []Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		dst = binary.AppendVarint(dst, int64(e.Term))
		dst = spec.AppendStr(dst, e.Value)
	}
	return dst
}

// decodeEntries and decodeIntRow read the composite shapes
// AppendState writes. Entry counts are bounded by the remaining input
// (spec.Decoder.Len) before any slice is sized from them; a non-nil per-node
// row must be exactly n long (spec.Decoder.Row).
func decodeEntries(d *spec.Decoder, what string) []Entry {
	ln := d.Len(what)
	if ln == 0 {
		return nil
	}
	es := make([]Entry, ln)
	for i := range es {
		es[i].Term = d.Int(what)
		es[i].Value = d.Str(what)
	}
	if d.Err != nil {
		return nil
	}
	return es
}

func decodeIntRow(d *spec.Decoder, what string, n int) []int {
	if !d.Row(what, n) {
		return nil
	}
	row := make([]int, n)
	for i := range row {
		row[i] = d.Int(what)
	}
	return row
}

// DecodeState implements spec.StateCodec.
func (m *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	n := m.n
	s := newState(n)
	s.snapshots = m.opt.Snapshots
	s.kv = m.opt.KV
	s.durability = m.opt.Budget.MaxDirtyCrashes > 0
	d := &spec.Decoder{Src: src}

	for i := 0; i < n; i++ {
		s.Role[i] = d.Int("role")
		s.Term[i] = d.Int("term")
		s.VotedFor[i] = d.Node("votedFor", n)
		s.Commit[i] = d.Int("commit")
		s.SnapIdx[i] = d.Int("snapIdx")
		s.SnapTerm[i] = d.Int("snapTerm")
		s.DurTerm[i] = d.Int("durTerm")
		s.DurVote[i] = d.Node("durVote", n)
		if !d.Bool("up") {
			s.Up.Del(i)
		}
	}
	for i := 0; i < n; i++ {
		s.Log[i] = decodeEntries(d, "log")
		s.DurLog[i] = decodeEntries(d, "durLog")
		s.Votes[i] = d.NodeSetRow("votes", n, i)
		s.PreVotes[i] = d.NodeSetRow("preVotes", n, i)
		s.Next[i] = decodeIntRow(d, "next", n)
		s.Match[i] = decodeIntRow(d, "match", n)
	}
	spec.DecodeChannels(&s.Net, d)
	s.Committed = decodeEntries(d, "committed")
	s.SnapConflictInstall = d.Bool("snapConflictInstall")
	var lr kvRead
	if lr.Node = d.Node("lastReadNode", n); lr.Node < 0 {
		d.Failf("lastReadNode %d: not a node", lr.Node)
	}
	lr.Key = d.Str("lastReadKey")
	lr.Val = d.Str("lastReadVal")
	lr.Want = d.Str("lastReadWant")
	lr.Bad = d.Bool("lastReadBad")
	if lr != (kvRead{}) {
		s.LastRead = &lr
	}
	s.Counters.Decode(d)
	s.Viol.Flag = d.Str("violation")
	if d.Err != nil {
		return nil, nil, fmt.Errorf("raftbase: %w", d.Err)
	}
	return s, d.Src, nil
}
