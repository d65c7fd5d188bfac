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
// The encoding is the record read field by field in a fixed order, which is
// not the record's own (a checkpoint or a peer's block written by an earlier
// build must still decode): per node its eight integers and liveness, then
// per node its logs, vote sets and rows, then the channels and the ghosts.
// A Next/Match row is a 0 marker when it does not exist and n+1 and the row
// when it does: the record keeps each row's existence as a presence bit, and
// permute and rendering branch on it, so a decoded state must round-trip it
// exactly. Votes/PreVotes are written the same way, the empty set standing
// for the row that does not exist. Logs, channel queues and Committed are a
// plain length and their elements; an entry is its term and its value, which
// decoding maps back into the machine's vocabulary. Every integer the record
// stores in 32 bits is refused by DecodeState when it does not fit.

// AppendState implements spec.StateCodec.
func (m *Machine) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*State)
	n := s.n
	vi := func(v int) { dst = binary.AppendVarint(dst, int64(v)) }
	vb := func(b bool) { dst = spec.AppendBool(dst, b) }
	vs := func(str string) { dst = spec.AppendStr(dst, str) }
	row := func(at, i int, exists bool) {
		if !exists {
			dst = append(dst, 0)
			return
		}
		dst = binary.AppendUvarint(dst, uint64(n)+1)
		for _, w := range s.row(at, i) {
			vi(int(int32(w)))
		}
	}

	up := s.Up()
	for i := 0; i < n; i++ {
		for f := 0; f < numFields; f++ {
			vi(s.get(f, i))
		}
		vb(up.Has(i))
	}
	for i := 0; i < n; i++ {
		dst = s.appendEntries(dst, s.region(i))
		dst = s.appendEntries(dst, s.region(durLog(n, i)))
		dst = spec.AppendNodeSetRow(dst, s.votes(i), n)
		dst = spec.AppendNodeSetRow(dst, s.preVotes(i), n)
		row(nextAt(n), i, s.hasNext(i))
		row(matchAt(n), i, s.hasMatch(i))
	}
	dst = spec.AppendChannels(dst, &s.Net, s)
	dst = s.appendEntries(dst, s.region(committed(n)))
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

// region returns the words of region r.
func (s *State) region(r int) []uint32 {
	a, b := s.span(r)
	return s.W[a:b]
}

// appendEntries appends the encoding of the entries w holds (term, value
// index, …): their count, then each one's term and value.
func (s *State) appendEntries(dst []byte, w []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(w)/2))
	if len(w) == 0 {
		return dst
	}
	vals := s.vocab().vals
	for k := 0; k < len(w); k += 2 {
		dst = binary.AppendVarint(dst, int64(int32(w[k])))
		dst = spec.AppendStr(dst, vals[w[k+1]])
	}
	return dst
}

// decodeEntries reads what appendEntries wrote onto the end of region r and
// returns the count. The count is bounded by the remaining input
// (spec.Decoder.Len) before anything is sized from it, and a value outside
// the machine's vocabulary is refused by name.
func (s *State) decodeEntries(d *spec.Decoder, what string, r int) int {
	ln := d.Len(what)
	if ln == 0 {
		return 0
	}
	voc := s.vocab()
	for k := 0; k < ln && d.Err == nil; k++ {
		term := d.Int32(what)
		val := d.Str(what)
		idx, ok := voc.idx[val]
		if !ok && d.Err == nil {
			d.Failf("%s value %q is not in the machine's vocabulary %q", what, val, voc.vals)
		}
		s.push(r, int(term), idx)
	}
	return ln
}

// node32 reads a node id, or a negative absence marker, that the record
// stores in 32 bits.
func node32(d *spec.Decoder, what string, n int) int {
	v := d.Node(what, n)
	if int(int32(v)) != v {
		d.Failf("%s %d does not fit the 32 bits it is stored in", what, v)
		return 0
	}
	return v
}

// DecodeState implements spec.StateCodec.
func (m *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	n := m.n
	s := m.newState()
	d := &spec.Decoder{Src: src}

	var up spec.NodeSet
	for i := 0; i < n; i++ {
		s.setRole(i, int(d.Int32("role")))
		s.setTerm(i, int(d.Int32("term")))
		s.setVotedFor(i, node32(d, "votedFor", n))
		s.setCommit(i, int(d.Int32("commit")))
		s.setSnapshot(i, int(d.Int32("snapIdx")), int(d.Int32("snapTerm")))
		s.put(fDurTerm, i, int(d.Int32("durTerm")))
		s.put(fDurVote, i, node32(d, "durVote", n))
		if d.Bool("up") {
			up.Add(i)
		}
	}
	s.SetUp(up)
	var next, match spec.NodeSet
	row := func(what string, at, i int, rows *spec.NodeSet) {
		if !d.Row(what, n) {
			return
		}
		rows.Add(i)
		words := s.row(at, i)
		for p := range words {
			words[p] = uint32(d.Int32(what))
		}
	}
	for i := 0; i < n; i++ {
		s.decodeEntries(d, "log", i)
		s.decodeEntries(d, "durLog", durLog(n, i))
		s.setVotes(i, d.NodeSetRow("votes", n, i))
		s.setPreVotes(i, d.NodeSetRow("preVotes", n, i))
		row("next", nextAt(n), i, &next)
		row("match", matchAt(n), i, &match)
	}
	s.setRowSets(next, match)
	spec.DecodeChannels(&s.Net, d, s)
	s.decodeEntries(d, "committed", committed(n))
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
