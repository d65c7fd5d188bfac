package trace

import (
	"math/bits"
	"strconv"
)

// The renderers below are the one vocabulary of rendered values: a spec's
// Vars and an implementation's Observe both call them, so that conformance
// compares the two sides byte for byte. Each renders into a stack buffer and
// allocates only the returned string.

// logEntry is the element type every Raft log shares: the spec's Entry and
// each implementation's Entry have this underlying type.
type logEntry = struct {
	Term  int    `json:"t"`
	Value string `json:"v"`
}

// txn is the element type of a ZAB history, shared the same way.
type txn = struct {
	Epoch   int    `json:"e"`
	Counter int    `json:"c"`
	Value   string `json:"v"`
}

// Log renders a Raft log as "[term:value term:value ...]".
func Log[E ~logEntry](log []E) string {
	if len(log) == 0 {
		return "[]"
	}
	var buf [64]byte
	b := append(buf[:0], '[')
	for i := range log {
		e := logEntry(log[i])
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(e.Term), 10)
		b = append(b, ':')
		b = append(b, e.Value...)
	}
	return string(append(b, ']'))
}

// History renders a ZAB history as "[epoch.counter:value ...]".
func History[T ~txn](h []T) string {
	if len(h) == 0 {
		return "[]"
	}
	var buf [64]byte
	b := append(buf[:0], '[')
	for i := range h {
		t := txn(h[i])
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(t.Epoch), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(t.Counter), 10)
		b = append(b, ':')
		b = append(b, t.Value...)
	}
	return string(append(b, ']'))
}

// PeerRow renders a leader's per-peer row as "[v v ...]" with "_" in the
// leader's own slot, self.
func PeerRow(vals []int, self int) string {
	var buf [32]byte
	b := append(buf[:0], '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ' ')
		}
		if i == self {
			b = append(b, '_')
			continue
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(append(b, ']'))
}

// IDSet renders a set of node ids, bit j standing for node j, as the ids in
// ascending order: "{0 2}". spec.NodeSet is such a mask; MapIDs and BoolIDs
// make one from the other shapes an implementation keeps a set in.
func IDSet(ids uint64) string {
	var buf [32]byte
	b := append(buf[:0], '{')
	for t := ids; t != 0; t &= t - 1 {
		if t != ids {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(bits.TrailingZeros64(t)), 10)
	}
	return string(append(b, '}'))
}

// MapIDs returns the id mask of the keys of m; its values are not read.
// Every key must be a node id below 64.
func MapIDs(m map[int]bool) uint64 {
	var ids uint64
	for id := range m {
		ids |= 1 << uint(id)
	}
	return ids
}

// BoolIDs returns the id mask of the indices at which set is true. Its
// length must not exceed 64.
func BoolIDs(set []bool) uint64 {
	var ids uint64
	for id, in := range set {
		if in {
			ids |= 1 << uint(id)
		}
	}
	return ids
}

// Vote renders an FLE vote as "leader@(epoch,counter)".
func Vote(leader, epoch, counter int) string {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(leader), 10)
	b = append(b, "@("...)
	b = strconv.AppendInt(b, int64(epoch), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(counter), 10)
	return string(append(b, ')'))
}
