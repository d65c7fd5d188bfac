package spec

import (
	"encoding/binary"
	"slices"
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
// C is the family's context, the state the message is queued in: a message
// whose payload does not fit its fixed form keeps the payload there (a Raft
// AppendEntries its entries), and reads it back through c.
type Message[M, C any] interface {
	// Hash returns h with the message's content mixed in, leaving out any
	// field whose value is a node id (those belong in the family's orbit
	// residue). The hasher goes by value: a pointer handed to a method of a
	// type parameter escapes, and the digest loops keep theirs on the stack.
	Hash(h fp.Hasher, c C) fp.Hasher
	// AppendTo appends the message's encoding to dst.
	AppendTo(dst []byte, c C) []byte
	// DecodeFrom decodes one message AppendTo wrote, of a state of n nodes,
	// from the front of src into c and returns it with the remaining bytes;
	// the receiver is not read. (Bytes, not a *Decoder: a pointer handed to a
	// method of a type parameter escapes, and would cost every decoded state
	// an allocation.)
	DecodeFrom(src []byte, n int, c C) (M, []byte, error)
	// Permuted returns the message with every node id it carries mapped
	// through perm.
	Permuted(perm []int) M
}

// Net is the environment a distributed system runs in, written once for both
// levels: per ordered pair a FIFO (TCP) or multiset (UDP) channel, crashes
// that sever a node's links and empty its channels, partitions, and UDP loss
// and duplication. A spec family embeds it in its State; the engine's proxy
// holds one of frames, so the implementation runs under the rules the specs
// enumerate.
//
// A Net is two flat arrays and nothing else: the words of W and the messages
// of Q. W starts with the network's NetWords(n) words — which nodes are up,
// per node the set of severed and the set of partitioned peers, and per
// ordered pair the end of its queue in Q — and a family that embeds the Net
// keeps its own words after them, so that its whole state can be one record.
// Q holds every message in flight, the queues back to back in (src, dst)
// row-major order. CopyTo is therefore two copies, and a Net of a message
// type without pointers has nothing for the collector to trace.
type Net[M any] struct {
	// W is the record: the network's words first, the family's after.
	W []uint32
	// Q is every queued message, queue by queue.
	Q []M
	n int
}

// NetWords is the number of words a Net of n nodes keeps at the front of W:
// two for the running set, two per node for each of its severed and
// partitioned sets, and one per ordered pair for the end of its queue.
func NetWords(n int) int { return 2 + 4*n + n*n }

// LoadSet reads the NodeSet stored at w[off:off+2] (low word first).
func LoadSet(w []uint32, off int) NodeSet {
	return NodeSet(w[off]) | NodeSet(w[off+1])<<32
}

// StoreSet stores s at w[off:off+2].
func StoreSet(w []uint32, off int, s NodeSet) {
	w[off], w[off+1] = uint32(s), uint32(s>>32)
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

// Reset makes net a network of n nodes, none of them running, with every
// link joined and every queue empty, and extra zeroed words for the family
// after the network's in W. It reuses net's arrays.
func (net *Net[M]) Reset(n, extra int) {
	net.n = n
	net.W = Sized(net.W, NetWords(n)+extra)
	clear(net.W)
	net.Q = net.Q[:0]
}

// CopyTo makes dst a copy of net, reusing dst's arrays: the successor a
// family edits in place is its parent's record copied into a dead state's.
// An array it has to allocate gets room for a few more words and messages,
// so that the successor, which usually logs or sends something, is built
// without a second allocation.
func (net *Net[M]) CopyTo(dst *Net[M]) {
	dst.n = net.n
	if cap(dst.W) < len(net.W) {
		dst.W = make([]uint32, 0, len(net.W)+8)
	}
	if cap(dst.Q) < len(net.Q)+2 {
		dst.Q = make([]M, 0, len(net.Q)+2)
	}
	dst.W = append(dst.W[:0], net.W...)
	dst.Q = append(dst.Q[:0], net.Q...)
}

// Up returns the set of running nodes.
func (net *Net[M]) Up() NodeSet { return LoadSet(net.W, 0) }

// SetUp replaces the set of running nodes (a family's initial state and its
// decoder; a running node's links are Restart's).
func (net *Net[M]) SetUp(s NodeSet) { StoreSet(net.W, 0, s) }

// Cut returns the nodes b for which the ordered pair a→b is severed, by a
// crash or a partition.
func (net *Net[M]) Cut(a int) NodeSet { return LoadSet(net.W, 2+2*a) }

// Part returns the nodes a is partitioned from (kept so that a restart does
// not reconnect them).
func (net *Net[M]) Part(a int) NodeSet { return LoadSet(net.W, 2+2*net.n+2*a) }

func (net *Net[M]) setCut(a int, s NodeSet)  { StoreSet(net.W, 2+2*a, s) }
func (net *Net[M]) setPart(a int, s NodeSet) { StoreSet(net.W, 2+2*net.n+2*a, s) }

// ends returns the words that hold the end of every queue in Q.
func (net *Net[M]) ends() []uint32 {
	at := 2 + 4*net.n
	return net.W[at : at+net.n*net.n]
}

// span returns the bounds in Q of the queue src→dst.
func (net *Net[M]) span(src, dst int) (int, int) {
	p := src*net.n + dst
	ends := net.ends()
	start := 0
	if p > 0 {
		start = int(ends[p-1])
	}
	return start, int(ends[p])
}

// Queue returns the messages in flight from src to dst, oldest first. The
// view is the Net's: it is valid until the next change to net, and an
// append to it reallocates rather than overwriting a neighbour.
func (net *Net[M]) Queue(src, dst int) []M {
	start, end := net.span(src, dst)
	return net.Q[start:end:end]
}

// QueueLen returns the number of messages in flight from src to dst.
func (net *Net[M]) QueueLen(src, dst int) int {
	start, end := net.span(src, dst)
	return end - start
}

// shift moves the end of every queue from pair src→dst on by d messages.
func (net *Net[M]) shift(src, dst, d int) {
	ends := net.ends()
	for p := src*net.n + dst; p < len(ends); p++ {
		ends[p] = uint32(int(ends[p]) + d)
	}
}

// empty drops every message of the queue src→dst.
func (net *Net[M]) empty(src, dst int) {
	start, end := net.span(src, dst)
	if end > start {
		net.Q = slices.Delete(net.Q, start, end)
		net.shift(src, dst, start-end)
	}
}

// Send appends m to channel src→dst unless the pair is severed (a send across
// a cut link is lost), and reports whether it did.
func (net *Net[M]) Send(src, dst int, m M) bool {
	if src == dst || net.Cut(src).Has(dst) {
		return false
	}
	_, end := net.span(src, dst)
	net.Q = slices.Insert(net.Q, end, m)
	net.shift(src, dst, 1)
	return true
}

// Take removes and returns message k of channel src→dst, closing the gap in
// place: net is a successor under construction, and its queues are its own.
func (net *Net[M]) Take(src, dst, k int) M {
	start, _ := net.span(src, dst)
	m := net.Q[start+k]
	net.Q = slices.Delete(net.Q, start+k, start+k+1)
	net.shift(src, dst, -1)
	return m
}

// Dup appends a copy of message k of channel src→dst to the channel.
func (net *Net[M]) Dup(src, dst, k int) {
	start, end := net.span(src, dst)
	net.Q = slices.Insert(net.Q, end, net.Q[start+k])
	net.shift(src, dst, 1)
}

// Overflows reports whether a channel holds more than max messages, the
// MaxBuffer budget: a transition that leaves one over it is not enumerated.
// A max of zero or less bounds nothing.
func (net *Net[M]) Overflows(max int) bool {
	if max <= 0 || len(net.Q) <= max {
		return false
	}
	start := 0
	for _, end := range net.ends() {
		if int(end)-start > max {
			return true
		}
		start = int(end)
	}
	return false
}

// Crash is the network half of node i crashing: i is down, and every link
// to or from it is severed and emptied. The family clears the node's
// volatile protocol state.
func (net *Net[M]) Crash(i int) {
	up := net.Up()
	up.Del(i)
	net.SetUp(up)
	for j := 0; j < net.n; j++ {
		if j != i {
			net.sever(i, j)
			net.sever(j, i)
		}
	}
}

// sever cuts the ordered pair a→b and empties its queue.
func (net *Net[M]) sever(a, b int) {
	cut := net.Cut(a)
	cut.Add(b)
	net.setCut(a, cut)
	net.empty(a, b)
}

// join reconnects the ordered pair a→b.
func (net *Net[M]) join(a, b int) {
	cut := net.Cut(a)
	cut.Del(b)
	net.setCut(a, cut)
}

// Restart brings node i up and reconnects it to every running node no
// partition separates it from.
func (net *Net[M]) Restart(i int) {
	up := net.Up()
	up.Add(i)
	net.SetUp(up)
	for j := 0; j < net.n; j++ {
		if j == i || !up.Has(j) || net.Part(i).Has(j) || net.Part(j).Has(i) {
			continue
		}
		net.join(i, j)
		net.join(j, i)
	}
}

// Partition separates a and b: both directions are severed and emptied until
// Heal.
func (net *Net[M]) Partition(a, b int) {
	pa, pb := net.Part(a), net.Part(b)
	pa.Add(b)
	pb.Add(a)
	net.setPart(a, pa)
	net.setPart(b, pb)
	net.sever(a, b)
	net.sever(b, a)
}

// Heal ends the partition between a and b, reconnecting them if both are up.
func (net *Net[M]) Heal(a, b int) {
	pa, pb := net.Part(a), net.Part(b)
	pa.Del(b)
	pb.Del(a)
	net.setPart(a, pa)
	net.setPart(b, pb)
	if up := net.Up(); up.Has(a) && up.Has(b) {
		net.join(a, b)
		net.join(b, a)
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
	n := net.n
	up := net.Up()
	for i := 0; i < n; i++ {
		if !up.Has(i) && c.CanRestart(b) {
			each(trace.Event{Type: trace.EvRestart, Action: "NodeStart", Node: i})
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			ql := net.QueueLen(src, dst)
			if src == dst || ql == 0 || !up.Has(dst) {
				continue
			}
			if t == TCP {
				each(trace.Event{Type: trace.EvDeliver, Node: dst, Peer: src})
				continue
			}
			for k := 0; k < ql; k++ {
				each(trace.Event{Type: trace.EvDeliver, Node: dst, Peer: src, Index: k})
			}
			for k := 0; k < ql; k++ {
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
			if net.Part(a).Has(z) {
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
func HashEdge[M Message[M, C], C any](net *Net[M], h *fp.Hasher, a, b int, c C) {
	q := net.Queue(a, b)
	h.WriteInt(len(q))
	for k := range q {
		*h = q[k].Hash(*h, c)
	}
	h.WriteBool(net.Cut(a).Has(b))
	h.WriteBool(net.Part(a).Has(b))
}

// PermuteInto writes net with node identities permuted by perm (perm[i] is
// the new identity of node i) into dst, which Reset has given the same arity.
func PermuteInto[M interface{ Permuted(perm []int) M }](net, dst *Net[M], perm []int) {
	n := net.n
	var inv [MaxNodes]int
	for i, p := range perm {
		inv[p] = i
	}
	dst.SetUp(net.Up().Permute(perm))
	for i := 0; i < n; i++ {
		dst.setCut(perm[i], net.Cut(i).Permute(perm))
		dst.setPart(perm[i], net.Part(i).Permute(perm))
	}
	dst.Q = dst.Q[:0]
	ends := dst.ends()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, m := range net.Queue(inv[a], inv[b]) {
				dst.Q = append(dst.Q, m.Permuted(perm))
			}
			ends[a*n+b] = uint32(len(dst.Q))
		}
	}
}

// AppendChannels appends the channel section of a state's encoding of net to
// dst: per ordered pair, row-major, whether it is cut and whether it is
// partitioned (one byte each), the queue's length and its messages. (Up is
// the family's to encode, beside the node's other variables.)
func AppendChannels[M Message[M, C], C any](dst []byte, net *Net[M], c C) []byte {
	for i := 0; i < net.n; i++ {
		for j := 0; j < net.n; j++ {
			q := net.Queue(i, j)
			dst = AppendBool(dst, net.Cut(i).Has(j))
			dst = AppendBool(dst, net.Part(i).Has(j))
			dst = binary.AppendUvarint(dst, uint64(len(q)))
			for k := range q {
				dst = q[k].AppendTo(dst, c)
			}
		}
	}
	return dst
}

// DecodeChannels reads what AppendChannels wrote into net, which Reset has
// given the state's arity, and whose messages decode into c.
func DecodeChannels[M Message[M, C], C any](net *Net[M], d *Decoder, c C) {
	n := net.n
	var zero M
	ends := net.ends()
	for i := 0; i < n; i++ {
		cut, part := net.Cut(i), net.Part(i)
		for j := 0; j < n; j++ {
			if d.Bool("cut") {
				cut.Add(j)
			}
			if d.Bool("part") {
				part.Add(j)
			}
			qn := d.Len("chan")
			for k := 0; k < qn && d.Err == nil; k++ {
				var m M
				m, d.Src, d.Err = zero.DecodeFrom(d.Src, n, c)
				net.Q = append(net.Q, m)
			}
			ends[i*n+j] = uint32(len(net.Q))
		}
		net.setCut(i, cut)
		net.setPart(i, part)
	}
}

// NetSlots writes the length of every channel into its net[src->dst] slot of
// sc: the one rendering of the network, a spec's and the engine's alike.
func (net *Net[M]) NetSlots(dst []string, sc *trace.Schema) {
	for src := 0; src < net.n; src++ {
		for d := 0; d < net.n; d++ {
			if src != d {
				dst[sc.Net(src, d)] = strconv.Itoa(net.QueueLen(src, d))
			}
		}
	}
}
