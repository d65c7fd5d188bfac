package xraftkv_test

import (
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/systems/xraftkv"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func cluster(t *testing.T, n int, bugs bugdb.Set) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(engine.Config{
		Nodes:     n,
		Semantics: spec.TCP,
		Seed:      1,
		Timeouts: map[string]time.Duration{
			"election":  200 * time.Millisecond,
			"heartbeat": 60 * time.Millisecond,
		},
	}, func(id int) vos.Process { return xraftkv.New(bugs) })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func apply(t *testing.T, c *engine.Cluster, cmds ...engine.Command) {
	t.Helper()
	for _, cmd := range cmds {
		if err := c.Apply(cmd); err != nil {
			t.Fatalf("apply %v: %v", cmd, err)
		}
	}
}

func putAndReplicate(t *testing.T, c *engine.Cluster) {
	t.Helper()
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // initial AE
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // its ack
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "put x 7"},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "heartbeat"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // AE [x=7]
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // ack: commit+apply
	)
}

func TestPutGetRoundTrip(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	putAndReplicate(t, c)
	apply(t, c, engine.Command{Type: trace.EvRequest, Node: 0, Payload: "get x"})
	v0, _ := c.Observe(0)
	if v0["lastRead"] != "x=7" {
		t.Errorf("lastRead = %q, want x=7", v0["lastRead"])
	}
	if v0["kv"] != "{x=7}" {
		t.Errorf("kv = %q", v0["kv"])
	}
}

func TestFixedBuildRefusesReadWithoutQuorum(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	putAndReplicate(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvPartition, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvPartition, Node: 0, Peer: 2},
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "get x"},
	)
	v0, _ := c.Observe(0)
	if v0["lastRead"] != "" {
		t.Errorf("isolated leader must refuse the read, got %q", v0["lastRead"])
	}
}

func TestBuggyBuildServesIsolatedRead(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs().With(bugdb.XKVStaleRead))
	putAndReplicate(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvPartition, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvPartition, Node: 0, Peer: 2},
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "get x"},
	)
	v0, _ := c.Observe(0)
	if v0["lastRead"] != "x=7" {
		t.Errorf("buggy build should answer locally, got %q", v0["lastRead"])
	}
}

func TestBadCommandRejected(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	apply(t, c, engine.Command{Type: trace.EvRequest, Node: 0, Payload: "frobnicate"})
	v0, _ := c.Observe(0)
	if v0["kv"] != "{}" {
		t.Errorf("kv = %q", v0["kv"])
	}
}
