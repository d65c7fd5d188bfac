package spec

import (
	"encoding/binary"
	"strconv"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Semantics is the transport failure model of the environment (§3.1).
type Semantics int

// Transport semantics. Under TCP a channel is a FIFO that loses, duplicates
// and reorders nothing, and the one network failure is a partition, which
// breaks the connection, empties it and blocks it until healed (§A.3). Under
// UDP a channel is a multiset: any message can be delivered, dropped or
// duplicated.
const (
	TCP Semantics = iota
	UDP
)

// String returns "tcp" or "udp".
func (s Semantics) String() string {
	if s == TCP {
		return "tcp"
	}
	return "udp"
}

// Message is what a spec family's queued message supplies to Net's digest,
// codec and permutation (HashEdge, AppendChannels, DecodeChannels and
// PermuteInto): its half of each. Everything else a channel does is Net's.
type Message[M any] interface {
	// Hash returns h with the message's content mixed in, leaving out any
	// field whose value is a node id (those belong in the family's orbit
	// residue). The hasher goes by value: a pointer handed to a method of a
	// type parameter escapes, and the digest loops keep theirs on the stack.
	Hash(h fp.Hasher) fp.Hasher
	// AppendTo appends the message's encoding to dst.
	AppendTo(dst []byte) []byte
	// DecodeFrom decodes one message AppendTo wrote, of a state of n nodes,
	// from the front of src and returns it with the remaining bytes; the
	// receiver is not read. (Bytes, not a *Decoder: a pointer handed to a
	// method of a type parameter escapes, and would cost every decoded state
	// an allocation.)
	DecodeFrom(src []byte, n int) (M, []byte, error)
	// Permuted returns the message with every node id it carries mapped
	// through perm.
	Permuted(perm []int) M
}

// Net is the environment a distributed system runs in, written once for both
// levels: per ordered pair a FIFO (TCP) or multiset (UDP) channel, crashes
// that sever a node's links and empty its channels, partitions, and UDP loss
// and duplication. A spec family embeds it in its State, so handlers read
// s.Chan, s.Cut and s.Up as promoted fields; the engine's proxy holds one of
// frames, so the implementation runs under the rules the specs enumerate.
//
// The matrix and link sets are carved from arrays the Net owns through its
// first views (Shape), and the queues from one flat message array, so that
// CloneInto into a recycled state allocates nothing once that state has been
// used at a size.
type Net[M any] struct {
	// Up holds the nodes that are running.
	Up NodeSet
	// Chan[src][dst] is the queue of messages in flight from src to dst.
	Chan [][][]M
	// Cut[a] holds the nodes b for which the ordered pair a→b is severed, by
	// a crash or a partition.
	Cut []NodeSet
	// Part[a] holds the nodes a is partitioned from (kept so that a restart
	// does not reconnect them).
	Part []NodeSet
	// flat is the array CloneInto carved the queues from.
	flat []M
}

// Sized returns a[:n], reallocating when a is too small — how a recycled
// state's backing arrays are reused. The contents are stale: callers
// overwrite every element they keep.
func Sized[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, n)
	}
	return a[:n]
}

// Shape gives net its channel matrix and link sets for n nodes, and returns
// extra*n more sets carved from the array Cut owns, for the family's own
// per-node sets. A fresh Net gets zeroed storage; a recycled one keeps its
// stale contents, which the caller overwrites.
//
// Cut owns the set array and Chan and Chan[0] the outers of the matrix: each
// is carved with its array's whole capacity, so a recycled Net finds its
// storage again by re-extending the view, and allocates when the view is too
// short, whatever built it. Every other view is exact-capacity. None of the
// owning views is ever appended to or reassigned, only written element-wise.
func (net *Net[M]) Shape(n, extra int) []NodeSet {
	sets := Sized(net.Cut[:cap(net.Cut)], (2+extra)*n)
	net.Cut = sets[0:n]
	net.Part = sets[n : 2*n : 2*n]
	var rows [][]M
	if len(net.Chan) > 0 {
		rows = net.Chan[0][:cap(net.Chan[0])]
	}
	rows = Sized(rows, n*n)
	net.Chan = Sized(net.Chan[:cap(net.Chan)], n)
	for i := 0; i < n; i++ {
		net.Chan[i] = rows[i*n : (i+1)*n : (i+1)*n]
	}
	if n > 0 {
		net.Chan[0] = rows[0:n]
	}
	return sets[2*n:]
}

// CloneInto copies net into dst, which Shape has given net's arity, reusing
// dst's flat message array. A recycled array usually has room to spare,
// which is handed out as one slot of slack after each queue while it lasts,
// so that the first send on a channel — most successors send at most one
// message per channel — appends in place. (A Net built from scratch is sized
// exactly: it may be one a caller keeps.) Every queue's capacity ends where
// its region does, so an append past the slack reallocates instead of growing
// into a neighbour's queue.
func (net *Net[M]) CloneInto(dst *Net[M]) {
	n := len(net.Chan)
	dst.Up = net.Up
	copy(dst.Cut, net.Cut)
	copy(dst.Part, net.Part)
	nm := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nm += len(net.Chan[i][j])
		}
	}
	flat := Sized(dst.flat, nm)
	flat = flat[:min(cap(flat), nm+n*n)]
	spare := len(flat) - nm
	off := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			end := off + copy(flat[off:], net.Chan[i][j])
			slack := min(spare, 1)
			spare -= slack
			dst.Chan[i][j] = flat[off : end : end+slack]
			off = end + slack
		}
	}
	dst.flat = flat
}

// Send appends m to channel src→dst unless the pair is severed (a send across
// a cut link is lost), and reports whether it did.
func (net *Net[M]) Send(src, dst int, m M) bool {
	if src == dst || net.Cut[src].Has(dst) {
		return false
	}
	net.Chan[src][dst] = append(net.Chan[src][dst], m)
	return true
}

// Take removes and returns message k of channel src→dst, closing the gap in
// place: net is a successor under construction, and its queues are its own.
func (net *Net[M]) Take(src, dst, k int) M {
	q := net.Chan[src][dst]
	m := q[k]
	net.Chan[src][dst] = q[:k+copy(q[k:], q[k+1:])]
	return m
}

// Dup appends a copy of message k of channel src→dst to the channel.
func (net *Net[M]) Dup(src, dst, k int) {
	q := net.Chan[src][dst]
	net.Chan[src][dst] = append(q, q[k])
}

// Overflows reports whether a channel holds more than max messages, the
// MaxBuffer budget: a transition that leaves one over it is not enumerated.
// A max of zero or less bounds nothing.
func (net *Net[M]) Overflows(max int) bool {
	if max <= 0 {
		return false
	}
	for _, row := range net.Chan {
		for _, q := range row {
			if len(q) > max {
				return true
			}
		}
	}
	return false
}

// Crash is the network half of node i crashing: i is down, and every link
// to or from it is severed and emptied. The family clears the node's
// volatile protocol state.
func (net *Net[M]) Crash(i int) {
	net.Up.Del(i)
	for j := range net.Chan {
		if j == i {
			continue
		}
		net.Chan[i][j] = nil
		net.Chan[j][i] = nil
		net.Cut[i].Add(j)
		net.Cut[j].Add(i)
	}
}

// Restart brings node i up and reconnects it to every running node no
// partition separates it from.
func (net *Net[M]) Restart(i int) {
	net.Up.Add(i)
	for j := range net.Chan {
		if j == i || !net.Up.Has(j) || net.Part[i].Has(j) || net.Part[j].Has(i) {
			continue
		}
		net.Cut[i].Del(j)
		net.Cut[j].Del(i)
	}
}

// Partition separates a and b: both directions are severed and emptied until
// Heal.
func (net *Net[M]) Partition(a, b int) {
	net.Part[a].Add(b)
	net.Part[b].Add(a)
	net.Cut[a].Add(b)
	net.Cut[b].Add(a)
	net.Chan[a][b] = nil
	net.Chan[b][a] = nil
}

// Heal ends the partition between a and b, reconnecting them if both are up.
func (net *Net[M]) Heal(a, b int) {
	net.Part[a].Del(b)
	net.Part[b].Del(a)
	if net.Up.Has(a) && net.Up.Has(b) {
		net.Cut[a].Del(b)
		net.Cut[b].Del(a)
	}
}

// Events calls each with every environment event enabled in net under the
// counters c, the budget b and the transport t, in the order a family lists
// them after its own: the restart of every down node; per ordered pair with
// messages for an up node, the delivery of the head (TCP) or of any message
// (UDP), then under UDP each message's drop and duplicate; under TCP, per
// unordered pair, its partition or its recovery. A delivery's Action is
// empty: the family names it when it dispatches the message.
func (net *Net[M]) Events(c *Counters, b Budget, t Semantics, each func(trace.Event)) {
	n := len(net.Chan)
	for i := 0; i < n; i++ {
		if !net.Up.Has(i) && c.CanRestart(b) {
			each(trace.Event{Type: trace.EvRestart, Action: "NodeStart", Node: i})
		}
	}
	for src, row := range net.Chan {
		for dst, q := range row {
			if src == dst || len(q) == 0 || !net.Up.Has(dst) {
				continue
			}
			if t == TCP {
				each(trace.Event{Type: trace.EvDeliver, Node: dst, Peer: src})
				continue
			}
			for k := range q {
				each(trace.Event{Type: trace.EvDeliver, Node: dst, Peer: src, Index: k})
			}
			for k := range q {
				if c.CanDrop(b) {
					each(trace.Event{Type: trace.EvDrop, Action: "DropMessage", Node: dst, Peer: src, Index: k})
				}
				if c.CanDuplicate(b) {
					each(trace.Event{Type: trace.EvDuplicate, Action: "DuplicateMessage", Node: dst, Peer: src, Index: k})
				}
			}
		}
	}
	for a := 0; a < n && t == TCP; a++ {
		for z := a + 1; z < n; z++ {
			if net.Part[a].Has(z) {
				each(trace.Event{Type: trace.EvRecover, Action: "NetworkRecover", Node: a, Peer: z})
			} else if c.CanPartition(b) {
				each(trace.Event{Type: trace.EvPartition, Action: "NetworkPartition", Node: a, Peer: z})
			}
		}
	}
}

// Apply applies ev, one of the events Events lists, to net and bumps c's
// counter for it. A delivery takes its message out of the channel and
// returns it with true, for the family to dispatch.
func (net *Net[M]) Apply(ev trace.Event, c *Counters) (m M, delivered bool) {
	switch ev.Type {
	case trace.EvRestart:
		c.Restarts++
		net.Restart(ev.Node)
	case trace.EvDeliver:
		return net.Take(ev.Peer, ev.Node, ev.Index), true
	case trace.EvDrop:
		c.Drops++
		net.Take(ev.Peer, ev.Node, ev.Index)
	case trace.EvDuplicate:
		c.Duplicates++
		net.Dup(ev.Peer, ev.Node, ev.Index)
	case trace.EvPartition:
		c.Partitions++
		net.Partition(ev.Node, ev.Peer)
	case trace.EvRecover:
		net.Heal(ev.Node, ev.Peer)
	}
	return m, false
}

// HashEdge mixes the channel half of the edge digest of net's ordered pair
// (a, b), a != b, into h: the queue's length and its messages, then whether
// the pair is cut and whether it is partitioned. None of it names a node, so
// it is invariant under node renaming as spec.Orbit requires.
func HashEdge[M Message[M]](net *Net[M], h *fp.Hasher, a, b int) {
	q := net.Chan[a][b]
	h.WriteInt(len(q))
	for k := range q {
		*h = q[k].Hash(*h)
	}
	h.WriteBool(net.Cut[a].Has(b))
	h.WriteBool(net.Part[a].Has(b))
}

// PermuteInto writes net with node identities permuted by perm (perm[i] is
// the new identity of node i) into dst, which Shape has given the same arity
// and zeroed. Every queue of dst is a fresh array.
func PermuteInto[M Message[M]](net, dst *Net[M], perm []int) {
	dst.Up = net.Up.Permute(perm)
	for i, row := range net.Chan {
		pi := perm[i]
		dst.Cut[pi] = net.Cut[i].Permute(perm)
		dst.Part[pi] = net.Part[i].Permute(perm)
		for j, q := range row {
			if i == j || len(q) == 0 {
				continue
			}
			out := make([]M, len(q))
			for k := range q {
				out[k] = q[k].Permuted(perm)
			}
			dst.Chan[pi][perm[j]] = out
		}
	}
}

// AppendChannels appends the channel section of a state's encoding of net to
// dst: per ordered pair, row-major, whether it is cut and whether it is
// partitioned (one byte each), the queue's length and its messages. (Up is
// the family's to encode, beside the node's other variables.)
func AppendChannels[M Message[M]](dst []byte, net *Net[M]) []byte {
	for i, row := range net.Chan {
		for j, q := range row {
			dst = AppendBool(dst, net.Cut[i].Has(j))
			dst = AppendBool(dst, net.Part[i].Has(j))
			dst = binary.AppendUvarint(dst, uint64(len(q)))
			for k := range q {
				dst = q[k].AppendTo(dst)
			}
		}
	}
	return dst
}

// DecodeChannels reads what AppendChannels wrote into net, which Shape has
// given the state's arity and zeroed. An empty queue decodes to nil.
func DecodeChannels[M Message[M]](net *Net[M], d *Decoder) {
	n := len(net.Chan)
	var zero M
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d.Bool("cut") {
				net.Cut[i].Add(j)
			}
			if d.Bool("part") {
				net.Part[i].Add(j)
			}
			qn := d.Len("chan")
			if qn == 0 {
				continue
			}
			q := make([]M, qn)
			for k := 0; k < qn && d.Err == nil; k++ {
				q[k], d.Src, d.Err = zero.DecodeFrom(d.Src, n)
			}
			net.Chan[i][j] = q
		}
	}
}

// NetSlots writes the length of every channel into its net[src->dst] slot of
// sc: the one rendering of the network, a spec's and the engine's alike.
func (net *Net[M]) NetSlots(dst []string, sc *trace.Schema) {
	for src, row := range net.Chan {
		for d, q := range row {
			if src != d {
				dst[sc.Net(src, d)] = strconv.Itoa(len(q))
			}
		}
	}
}
