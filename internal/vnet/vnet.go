// Package vnet is the transparent network proxy (§A.2 of the paper): it
// buffers every message a node sends and releases messages only on explicit
// engine commands, giving the engine full control over delivery order and
// network failures.
//
// Two semantics are provided, matching §3.1's environment modeling:
//
//   - TCP: per-connection FIFO queues; no loss, duplication, or reordering.
//     The only failure is a network partition, which breaks the connection,
//     clears in-flight buffers, and blocks traffic until healed (§A.3).
//   - UDP: an indexed buffer per ordered pair allowing selective delivery
//     (out-of-order), drops, and duplication.
//
// # Concurrency
//
// A Network is not safe for concurrent use: it is owned by exactly one
// goroutine (the deterministic engine's command loop — determinism requires
// serial execution), and every method, including Stats, must be called from
// that goroutine. The one sanctioned way to observe a live run from another
// goroutine is the obs-backed mirror installed with SetMetrics: its
// counters and gauges are atomics updated alongside the plain Stats fields,
// so a concurrent reader (an expvar endpoint, a progress reporter, trace
// emission) polls the registry's vnet.* entries instead of touching the
// Network. TestStatsMirrorConcurrentReads pins this contract under -race.
package vnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"github.com/sandtable-go/sandtable/internal/obs"
)

// Semantics selects the transport failure model.
type Semantics int

// Transport semantics.
const (
	TCP Semantics = iota
	UDP
)

func (s Semantics) String() string {
	if s == TCP {
		return "tcp"
	}
	return "udp"
}

// Frame is one buffered message with its interposition header already
// stripped: Src/Dst identify the connection, Payload is the message body,
// Seq is a per-network monotonic sequence used for debugging.
type Frame struct {
	Src, Dst int
	Payload  []byte
	Seq      int
}

// Stats counts network activity for observation and leak checking.
//
// Ownership contract: the counters are plain ints deliberately — a Network
// is owned by exactly one goroutine (the deterministic engine's command
// loop; determinism *requires* serial execution), every mutation happens on
// that goroutine, and Stats() hands callers an independent copy by value.
// Concurrent readers that need live counters (an expvar endpoint watching a
// run) must not reach into the Network; they read the obs-backed mirror
// installed with SetMetrics, whose counters are atomics updated alongside
// these fields.
type Stats struct {
	Sent       int
	Delivered  int
	Dropped    int // includes partition-cleared and send-while-disconnected
	Duplicated int
}

// metrics mirrors Stats into an obs registry; nil handles no-op, so the
// mutation paths update them unconditionally.
type metrics struct {
	sent, delivered, dropped, duplicated *obs.Counter
	buffered                             *obs.Gauge
}

type pair struct{ src, dst int }

// Network is the engine-side message proxy.
type Network struct {
	n         int
	semantics Semantics
	queues    map[pair][]Frame
	cut       map[pair]bool // severed ordered pairs (partition or crash)
	stats     Stats
	seq       int

	m      metrics     // obs-backed mirror of stats (atomic, nil-safe)
	tracer *obs.Tracer // structured event sink (nil-safe)
}

// New builds a proxy for n nodes with the given semantics.
func New(n int, s Semantics) *Network {
	return &Network{
		n:         n,
		semantics: s,
		queues:    make(map[pair][]Frame),
		cut:       make(map[pair]bool),
	}
}

// N returns the node count.
func (nw *Network) N() int { return nw.n }

// Semantics returns the transport model.
func (nw *Network) Semantics() Semantics { return nw.semantics }

// Stats returns a copy of the activity counters (see the Stats ownership
// contract).
func (nw *Network) Stats() Stats { return nw.stats }

// SetMetrics installs an obs-backed mirror of the Stats counters (keys
// vnet.sent, vnet.delivered, vnet.dropped, vnet.duplicated and the
// vnet.buffered gauge) so network activity appears in metrics snapshots. A
// nil registry uninstalls the mirror.
func (nw *Network) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		nw.m = metrics{}
		return
	}
	nw.m = metrics{
		sent:       reg.Counter("vnet.sent"),
		delivered:  reg.Counter("vnet.delivered"),
		dropped:    reg.Counter("vnet.dropped"),
		duplicated: reg.Counter("vnet.duplicated"),
		buffered:   reg.Gauge("vnet.buffered"),
	}
}

// SetTracer installs a structured event sink: send/deliver/drop/duplicate
// and partition/heal/crash/restart events are emitted as they happen.
func (nw *Network) SetTracer(t *obs.Tracer) { nw.tracer = t }

// drop records n dropped frames in both the plain stats and the mirror.
func (nw *Network) drop(n int) {
	nw.stats.Dropped += n
	nw.m.dropped.Add(int64(n))
}

func (nw *Network) emit(kind string, src, dst, index int, detail map[string]string) {
	if nw.tracer == nil {
		return
	}
	nw.tracer.Emit(obs.Event{Layer: "vnet", Kind: kind, Node: dst, Peer: src, Index: index, Detail: detail})
}

// Connected reports whether the ordered pair src→dst can currently carry
// traffic.
func (nw *Network) Connected(src, dst int) bool {
	return !nw.cut[pair{src, dst}]
}

// Send enqueues a message. Under TCP semantics a send across a severed
// connection is dropped (the connection is broken; the sender would see an
// error or a reset — the paper's spec models this as not appending to the
// channel).
func (nw *Network) Send(src, dst int, payload []byte) {
	nw.stats.Sent++
	nw.m.sent.Inc()
	if !nw.Connected(src, dst) {
		nw.drop(1)
		nw.emit("send-dropped", src, dst, 0, map[string]string{"bytes": strconv.Itoa(len(payload))})
		return
	}
	nw.seq++
	p := pair{src, dst}
	nw.queues[p] = append(nw.queues[p], Frame{Src: src, Dst: dst, Payload: append([]byte(nil), payload...), Seq: nw.seq})
	nw.m.buffered.Add(1)
	nw.emit("send", src, dst, len(nw.queues[p])-1, map[string]string{"seq": strconv.Itoa(nw.seq), "bytes": strconv.Itoa(len(payload))})
}

// Len reports the number of buffered messages src→dst.
func (nw *Network) Len(src, dst int) int { return len(nw.queues[pair{src, dst}]) }

// TotalBuffered reports all in-flight messages.
func (nw *Network) TotalBuffered() int {
	t := 0
	for _, q := range nw.queues {
		t += len(q)
	}
	return t
}

// Peek returns the buffered frame at index without removing it.
func (nw *Network) Peek(src, dst, index int) (Frame, error) {
	q := nw.queues[pair{src, dst}]
	if index < 0 || index >= len(q) {
		return Frame{}, fmt.Errorf("vnet: no message %d->%d at index %d (buffered %d)", src, dst, index, len(q))
	}
	return q[index], nil
}

// ErrHeadOnly is returned when a non-head delivery is attempted under TCP.
var ErrHeadOnly = errors.New("vnet: TCP semantics deliver only the head message")

// Deliver removes and returns the frame at index. TCP semantics require
// index 0 (FIFO); UDP semantics allow any index (out-of-order delivery).
func (nw *Network) Deliver(src, dst, index int) (Frame, error) {
	if nw.semantics == TCP && index != 0 {
		return Frame{}, ErrHeadOnly
	}
	p := pair{src, dst}
	q := nw.queues[p]
	if index < 0 || index >= len(q) {
		return Frame{}, fmt.Errorf("vnet: no message %d->%d at index %d (buffered %d)", src, dst, index, len(q))
	}
	f := q[index]
	nw.queues[p] = append(q[:index:index], q[index+1:]...)
	nw.stats.Delivered++
	nw.m.delivered.Inc()
	nw.m.buffered.Add(-1)
	nw.emit("deliver", src, dst, index, map[string]string{"seq": strconv.Itoa(f.Seq)})
	return f, nil
}

// Drop discards the frame at index (UDP loss).
func (nw *Network) Drop(src, dst, index int) error {
	if nw.semantics != UDP {
		return fmt.Errorf("vnet: drop requires UDP semantics")
	}
	p := pair{src, dst}
	q := nw.queues[p]
	if index < 0 || index >= len(q) {
		return fmt.Errorf("vnet: no message %d->%d at index %d (buffered %d)", src, dst, index, len(q))
	}
	seq := q[index].Seq
	nw.queues[p] = append(q[:index:index], q[index+1:]...)
	nw.drop(1)
	nw.m.buffered.Add(-1)
	nw.emit("drop", src, dst, index, map[string]string{"seq": strconv.Itoa(seq)})
	return nil
}

// Duplicate appends a copy of the frame at index to the tail (UDP
// duplication).
func (nw *Network) Duplicate(src, dst, index int) error {
	if nw.semantics != UDP {
		return fmt.Errorf("vnet: duplicate requires UDP semantics")
	}
	p := pair{src, dst}
	q := nw.queues[p]
	if index < 0 || index >= len(q) {
		return fmt.Errorf("vnet: no message %d->%d at index %d (buffered %d)", src, dst, index, len(q))
	}
	nw.seq++
	dup := Frame{Src: src, Dst: dst, Payload: append([]byte(nil), q[index].Payload...), Seq: nw.seq}
	nw.queues[p] = append(q, dup)
	nw.stats.Duplicated++
	nw.m.duplicated.Inc()
	nw.m.buffered.Add(1)
	nw.emit("duplicate", src, dst, index, map[string]string{"seq": strconv.Itoa(nw.seq)})
	return nil
}

// Partition severs both directions between a and b: connections break,
// in-flight buffers are cleared, and no traffic flows until Heal (§A.3).
func (nw *Network) Partition(a, b int) {
	for _, p := range []pair{{a, b}, {b, a}} {
		nw.drop(len(nw.queues[p]))
		nw.m.buffered.Add(-int64(len(nw.queues[p])))
		delete(nw.queues, p)
		nw.cut[p] = true
	}
	nw.emit("partition", a, b, 0, nil)
}

// Heal restores connectivity between a and b.
func (nw *Network) Heal(a, b int) {
	delete(nw.cut, pair{a, b})
	delete(nw.cut, pair{b, a})
	nw.emit("heal", a, b, 0, nil)
}

// CrashNode severs and clears every connection involving the node (a node
// crash breaks all its network connections).
func (nw *Network) CrashNode(node int) {
	for other := 0; other < nw.n; other++ {
		if other == node {
			continue
		}
		for _, p := range []pair{{node, other}, {other, node}} {
			nw.drop(len(nw.queues[p]))
			nw.m.buffered.Add(-int64(len(nw.queues[p])))
			delete(nw.queues, p)
			nw.cut[p] = true
		}
	}
	nw.emit("crash-node", -1, node, 0, nil)
}

// RestartNode re-establishes the node's connections except those to an other
// for which stay(node, other) holds: an active partition between the two, or
// an other that is down (a rejoining node reconnects to the running rest).
func (nw *Network) RestartNode(node int, stay func(node, other int) bool) {
	for other := 0; other < nw.n; other++ {
		if other == node {
			continue
		}
		if stay != nil && stay(node, other) {
			continue
		}
		delete(nw.cut, pair{node, other})
		delete(nw.cut, pair{other, node})
	}
	nw.emit("restart-node", -1, node, 0, nil)
}

// Channels lists the ordered pairs with buffered traffic, sorted, for
// rendering network state in conformance comparisons.
func (nw *Network) Channels() []Frame {
	var out []Frame
	for p, q := range nw.queues {
		_ = p
		out = append(out, q...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Encode frames a payload with the interposition header the paper's
// interceptor prepends to mark message boundaries in a TCP byte stream.
func Encode(payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	return buf
}

// DecodeStream splits a byte stream into framed payloads, returning any
// trailing partial frame as rest.
func DecodeStream(stream []byte) (payloads [][]byte, rest []byte) {
	for {
		if len(stream) < 4 {
			return payloads, stream
		}
		n := binary.BigEndian.Uint32(stream)
		if len(stream) < int(4+n) {
			return payloads, stream
		}
		payloads = append(payloads, append([]byte(nil), stream[4:4+n]...))
		stream = stream[4+n:]
	}
}
