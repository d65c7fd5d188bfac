// Package transport carries the explorer's cross-peer fingerprint traffic
// for distributed exploration: every peer owns one contiguous slice of the
// fingerprint space (see Owner), expands only the frontier states it owns,
// and at each BFS level barrier exchanges the successor candidates that
// belong to other peers as batched raw blocks. The explorer's
// deterministic merge (equal-depth min-parent tie-break plus (depth, fp)
// ordering) makes the result byte-identical to a single-process run; the
// transport's only job is to move the candidate blocks and the small
// per-peer summaries that drive the global stop decisions.
//
// One implementation of the protocol exists (tcp.go), with two constructors
// for its links: DialTCP joins real multi-process and multi-machine peers
// over TCP, and NewMesh joins n in-process peers over net.Pipe, so tests run
// the same length-prefixed frames, per-link writers and flushes a cluster
// run does. A single-peer mesh is a loopback: Exchange returns immediately
// and exploration degenerates to the local path.
package transport

import (
	"github.com/sandtable-go/sandtable/internal/obs"
)

// Conn is one peer's endpoint in a fully connected cluster of Peers()
// members. All methods are called from the peer's single exploration
// goroutine; implementations may use internal concurrency but need not be
// goroutine-safe. The protocol is phase-ordered: a run performs a sequence
// of Exchange barriers with strictly increasing tags, after which peer 0
// (the coordinator, by convention) issues Probe calls answered by the other
// peers' ServeProbes loops until the coordinator sends Bye.
type Conn interface {
	// Self is this peer's id in [0, Peers()).
	Self() int
	// Peers is the cluster size.
	Peers() int
	// Exchange performs one level barrier: blocks[q] is sent to peer q
	// (blocks may be nil or hold nil entries — both mean an empty block),
	// summary is broadcast to every peer, and the call blocks until every
	// peer has contributed. It returns the blocks addressed to this peer
	// (in[Self()] is nil) and all summaries (sums[Self()] echoes the
	// caller's own). Every peer must call Exchange with the same tag
	// sequence; a tag mismatch or a dead peer surfaces as an error.
	Exchange(tag uint64, blocks [][]byte, summary []byte) (in [][]byte, sums [][]byte, err error)
	// Probe asks peer for the parent edge of a fingerprint it owns (used
	// by counterexample reconstruction on the coordinator). Only peer 0
	// may call Probe, and only after the final Exchange barrier.
	Probe(peer int, fp uint64) (parent uint64, depth int32, ok bool, err error)
	// ServeProbes answers the coordinator's Probe requests with the given
	// lookup until the coordinator sends Bye (returns nil) or the
	// connection dies (returns the error). Non-coordinator peers call this
	// after their final Exchange.
	ServeProbes(lookup func(fp uint64) (parent uint64, depth int32, ok bool)) error
	// Bye releases every peer blocked in ServeProbes. Only peer 0 calls it.
	Bye() error
	// Close tears the connection down; peers blocked on this peer fail
	// with an error rather than hanging.
	Close() error
}

// Metrics is the transport's peer-level instrumentation, resolved once from
// an obs.Registry and safe to share across a Conn's internal goroutines.
// A nil *Metrics is valid and records nothing.
type Metrics struct {
	// BlocksSent / BlocksRecv count candidate blocks exchanged at level
	// barriers (one per (peer, barrier) pair, empty blocks included).
	BlocksSent, BlocksRecv *obs.Counter
	// BytesSent / BytesRecv count block payload bytes.
	BytesSent, BytesRecv *obs.Counter
	// Barriers counts completed Exchange calls.
	Barriers *obs.Counter
	// StallNs accumulates wall-clock nanoseconds spent inside Exchange —
	// the time this peer waited on the rest of the cluster (plus its own
	// serialization), the headline load-imbalance signal.
	StallNs *obs.Counter
	// Probes counts remote parent-edge probes issued by this peer.
	Probes *obs.Counter
	// ProbeLatency is the remote-probe round-trip latency histogram, in
	// microseconds.
	ProbeLatency *obs.Histogram
}

// probeLatencyBounds are the ProbeLatency bucket upper bounds (µs).
var probeLatencyBounds = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000, 250000}

// NewMetrics resolves the transport metric handles from reg (nil reg → nil
// Metrics). Metric names are transport.blocks_sent, transport.blocks_recv,
// transport.bytes_sent, transport.bytes_recv, transport.barriers,
// transport.stall_ns, transport.probes, and transport.probe_latency_us.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		BlocksSent:   reg.Counter("transport.blocks_sent"),
		BlocksRecv:   reg.Counter("transport.blocks_recv"),
		BytesSent:    reg.Counter("transport.bytes_sent"),
		BytesRecv:    reg.Counter("transport.bytes_recv"),
		Barriers:     reg.Counter("transport.barriers"),
		StallNs:      reg.Counter("transport.stall_ns"),
		Probes:       reg.Counter("transport.probes"),
		ProbeLatency: reg.Histogram("transport.probe_latency_us", probeLatencyBounds),
	}
}

// sent records one outgoing block of n payload bytes.
func (m *Metrics) sent(n int) {
	if m == nil {
		return
	}
	m.BlocksSent.Inc()
	m.BytesSent.Add(int64(n))
}

// recv records one incoming block of n payload bytes.
func (m *Metrics) recv(n int) {
	if m == nil {
		return
	}
	m.BlocksRecv.Inc()
	m.BytesRecv.Add(int64(n))
}

// barrier records one completed Exchange that stalled for d nanoseconds.
func (m *Metrics) barrier(stallNs int64) {
	if m == nil {
		return
	}
	m.Barriers.Inc()
	m.StallNs.Add(stallNs)
}

// probe records one remote probe round trip of d microseconds.
func (m *Metrics) probe(latencyUs int64) {
	if m == nil {
		return
	}
	m.Probes.Inc()
	m.ProbeLatency.Observe(latencyUs)
}
