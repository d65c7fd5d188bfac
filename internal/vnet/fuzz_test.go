package vnet_test

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// FuzzQueueOps drives a 3-node cluster's network, under TCP or UDP (the
// first input byte), through hostile commands decoded from the fuzz input:
// sends, deliveries, drops, duplicates, partitions, heals, crashes and
// restarts with any node and peer, out-of-range nodes among them, and any
// index, negative and past the queue's end among them. After every command:
//   - a command the cluster refused left every rendered slot (nodes and
//     net[src->dst]) and every vnet.* value as they were;
//   - sent + duplicated = delivered + dropped + buffered, and buffered is
//     what the net slots add up to;
//   - a down node has no frame queued to or from it and no open link.
//
// Run via `make fuzz`.
func FuzzQueueOps(f *testing.F) {
	// TCP: FIFO deliveries, a refused non-head delivery and drop, a crash, a
	// send to the down node, a restart, a partition and its heal, a delivery
	// at a node that does not exist.
	f.Add([]byte{0, 0, 11, 0, 0, 11, 0, 1, 7, 1, 1, 7, 2, 2, 7, 1, 6, 7, 0, 0, 11, 0, 1, 7, 1,
		7, 7, 0, 4, 11, 0, 0, 11, 0, 5, 11, 0, 1, 9, 1})
	// UDP: a duplicate, a drop, an out-of-order delivery, a stale and a
	// negative index, a crash with frames queued both ways, a restart.
	f.Add([]byte{1, 0, 11, 0, 0, 11, 0, 0, 11, 0, 3, 7, 1, 2, 7, 3, 1, 7, 2, 1, 7, 7, 2, 7, 0,
		0, 17, 0, 0, 8, 0, 6, 8, 0, 7, 8, 0, 1, 7, 1})
	// TCP: a restart across an active partition, a send across it, its heal,
	// a node partitioned from itself, a restart of a running node and a
	// crash of a node that does not exist.
	f.Add([]byte{0, 0, 11, 0, 0, 16, 0, 0, 13, 0, 4, 17, 0, 6, 7, 0, 7, 7, 0, 0, 17, 0, 5, 17, 0,
		4, 6, 0, 7, 6, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 3
		if len(data) == 0 {
			return
		}
		sem := spec.TCP
		if data[0]&1 == 1 {
			sem = spec.UDP
		}
		nw := newNet(t, n, sem)
		schema := nw.c.Schema()
		slots := func() []string {
			dst := schema.Clear(nil)
			nw.c.ObserveSlots(schema, dst)
			return dst
		}
		vnetValues := func() map[string]any {
			out := map[string]any{}
			for k, v := range nw.reg.Snapshot() {
				if strings.HasPrefix(k, "vnet.") {
					out[k] = v
				}
			}
			return out
		}
		for i := 1; i+2 < len(data); i += 3 {
			// node and peer range over -1..3, the index over -1..6.
			node, peer := int(data[i+1]%5)-1, int(data[i+1]/5%5)-1
			cmd := engine.Command{Node: node, Peer: peer, Index: int(data[i+2]%8) - 1}
			switch data[i] % 8 {
			case 0:
				cmd = engine.Command{Type: trace.EvRequest, Node: node, Payload: strconv.Itoa(peer) + ":" + strconv.Itoa(i)}
			case 1:
				cmd.Type = trace.EvDeliver
			case 2:
				cmd.Type = trace.EvDrop
			case 3:
				cmd.Type = trace.EvDuplicate
			case 4:
				cmd.Type = trace.EvPartition
			case 5:
				cmd.Type = trace.EvRecover
			case 6:
				cmd.Type = trace.EvCrash
			case 7:
				cmd.Type = trace.EvRestart
			}
			before, beforeVnet := slots(), vnetValues()
			err := nw.c.Apply(cmd)
			var ce *engine.CrashError
			if errors.As(err, &ce) {
				t.Fatalf("%v: a recorder crashed: %v", cmd, err)
			}
			if err != nil {
				if after := slots(); !slices.Equal(after, before) {
					t.Fatalf("refused %v (%v) changed the rendering:\n%q\nwas\n%q", cmd, err, after, before)
				}
				if after := vnetValues(); !maps.Equal(after, beforeVnet) {
					t.Fatalf("refused %v (%v) changed the vnet values: %v, were %v", cmd, err, after, beforeVnet)
				}
			}
			inFlight := int64(0)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					q := int64(nw.len(src, dst))
					inFlight += q
					if (!nw.c.Up(src) || !nw.c.Up(dst)) && (q != 0 || nw.connected(src, dst)) {
						t.Fatalf("after %v: link %d->%d to a down node holds %d frames, connected %v", cmd, src, dst, q, nw.connected(src, dst))
					}
				}
			}
			buffered := nw.reg.Gauge("vnet.buffered").Value()
			if buffered != inFlight {
				t.Fatalf("after %v: vnet.buffered = %d, net slots hold %d", cmd, buffered, inFlight)
			}
			in := nw.counter("vnet.sent") + nw.counter("vnet.duplicated")
			out := nw.counter("vnet.delivered") + nw.counter("vnet.dropped") + buffered
			if in != out {
				t.Fatalf("after %v: sent + duplicated = %d, delivered + dropped + buffered = %d", cmd, in, out)
			}
		}
	})
}
