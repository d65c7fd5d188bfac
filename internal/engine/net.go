package engine

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// The cluster's network is a spec.Net of frames, the environment the
// specifications run in (§3.1, §A.2–A.3): the engine buffers every message a
// node sends and releases it only on an explicit command, so it controls
// delivery order and network failures. Which channel a send reaches, what a
// crash, restart, partition or heal does to the links and queues, and how a
// delivery, drop or duplicate changes a queue are all Net's methods, the ones
// the specifications enumerate. The proxy below adds only what the engine
// does beyond that model: it rejects a command the network cannot take,
// counts the traffic into the vnet.* metrics and emits the vnet trace events.
//
// The network is owned by the goroutine that applies commands (determinism
// requires serial execution). A concurrent reader — an expvar endpoint, a
// progress reporter — reads the vnet.* entries of the registry SetMetrics
// installed, whose counters and gauge are atomics.

// frame is one message in flight: the bytes a node sent, and the network's
// sequence number for it, which the vnet trace events carry.
type frame struct {
	payload []byte
	seq     int
}

// netMetrics are the vnet.* entries of the cluster's registry: frames sent,
// delivered, dropped (a drop, a send across a severed link, or a queue a
// partition or crash emptied) and duplicated, and the frames buffered. Nil
// entries (no registry) count nothing.
type netMetrics struct {
	sent, delivered, dropped, duplicated *obs.Counter
	buffered                             *obs.Gauge
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	return netMetrics{
		sent:       reg.Counter("vnet.sent"),
		delivered:  reg.Counter("vnet.delivered"),
		dropped:    reg.Counter("vnet.dropped"),
		duplicated: reg.Counter("vnet.duplicated"),
		buffered:   reg.Gauge("vnet.buffered"),
	}
}

// errHeadOnly rejects a delivery of any message but the head under TCP.
var errHeadOnly = errors.New("vnet: TCP semantics deliver only the head message")

func (c *Cluster) emit(kind string, src, dst, index int, detail map[string]string) {
	if c.tracer == nil {
		return
	}
	c.tracer.Emit(obs.Event{Layer: "vnet", Kind: kind, Node: dst, Peer: src, Index: index, Detail: detail})
}

// send enqueues a copy of payload on channel src→dst, or loses it when the
// link is severed (a broken connection, which the specifications model as
// not appending to the channel).
func (c *Cluster) send(src, dst int, payload []byte) {
	c.vm.sent.Inc()
	if !c.net.Send(src, dst, frame{payload: append([]byte(nil), payload...), seq: c.seq + 1}) {
		c.vm.dropped.Inc()
		c.emit("send-dropped", src, dst, 0, map[string]string{"bytes": strconv.Itoa(len(payload))})
		return
	}
	c.seq++
	c.vm.buffered.Add(1)
	c.emit("send", src, dst, len(c.net.Chan[src][dst])-1, map[string]string{"seq": strconv.Itoa(c.seq), "bytes": strconv.Itoa(len(payload))})
}

// inRange checks that channel src→dst holds a message at index; a node that
// does not exist has no channels.
func (c *Cluster) inRange(src, dst, index int) error {
	var q []frame
	if c.guard(src) == nil && c.guard(dst) == nil {
		q = c.net.Chan[src][dst]
	}
	if index < 0 || index >= len(q) {
		return fmt.Errorf("vnet: no message %d->%d at index %d (buffered %d)", src, dst, index, len(q))
	}
	return nil
}

// take removes and returns the frame at index of channel src→dst for
// delivery: under TCP only the head (FIFO), under UDP any (reordering).
func (c *Cluster) take(src, dst, index int) (frame, error) {
	if c.cfg.Semantics == spec.TCP && index != 0 {
		return frame{}, errHeadOnly
	}
	if err := c.inRange(src, dst, index); err != nil {
		return frame{}, err
	}
	f := c.net.Take(src, dst, index)
	c.vm.delivered.Inc()
	c.vm.buffered.Add(-1)
	c.emit("deliver", src, dst, index, map[string]string{"seq": strconv.Itoa(f.seq)})
	return f, nil
}

// drop loses the frame at index of channel src→dst (UDP loss).
func (c *Cluster) drop(src, dst, index int) error {
	if c.cfg.Semantics != spec.UDP {
		return fmt.Errorf("vnet: drop requires UDP semantics")
	}
	if err := c.inRange(src, dst, index); err != nil {
		return err
	}
	f := c.net.Take(src, dst, index)
	c.lost(1)
	c.emit("drop", src, dst, index, map[string]string{"seq": strconv.Itoa(f.seq)})
	return nil
}

// duplicate appends a copy of the frame at index of channel src→dst to the
// channel (UDP duplication). The copy is a new frame: its own sequence number
// and its own bytes, as every delivered payload is its receiver's.
func (c *Cluster) duplicate(src, dst, index int) error {
	if c.cfg.Semantics != spec.UDP {
		return fmt.Errorf("vnet: duplicate requires UDP semantics")
	}
	if err := c.inRange(src, dst, index); err != nil {
		return err
	}
	c.net.Dup(src, dst, index)
	c.seq++
	q := c.net.Chan[src][dst]
	q[len(q)-1] = frame{payload: append([]byte(nil), q[index].payload...), seq: c.seq}
	c.vm.duplicated.Inc()
	c.vm.buffered.Add(1)
	c.emit("duplicate", src, dst, index, map[string]string{"seq": strconv.Itoa(c.seq)})
	return nil
}

// lost counts n buffered frames as dropped.
func (c *Cluster) lost(n int) {
	c.vm.dropped.Add(int64(n))
	c.vm.buffered.Add(-int64(n))
}

// queued returns the number of frames on the links between a and b, both
// directions, which a partition or crash empties.
func (c *Cluster) queued(a, b int) int { return len(c.net.Chan[a][b]) + len(c.net.Chan[b][a]) }
