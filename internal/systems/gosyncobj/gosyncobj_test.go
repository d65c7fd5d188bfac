package gosyncobj_test

import (
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/systems/gosyncobj"
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
	}, func(id int) vos.Process { return gosyncobj.New(bugs) })
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

// electLeader drives node 0 to leadership in a 2-node cluster.
func electLeader(t *testing.T, c *engine.Cluster) {
	t.Helper()
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // rv
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // rvr -> leader
	)
	vars, _ := c.Observe(0)
	if vars["role"] != "leader" {
		t.Fatalf("node 0 role = %s, want leader", vars["role"])
	}
}

func TestElectionAndReplication(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	electLeader(t, c)
	// The new leader broadcast an initial AppendEntries; deliver and ack.
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // initial AE
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // AER
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "heartbeat"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // AE with v1
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // AER
	)
	v0, _ := c.Observe(0)
	v1, _ := c.Observe(1)
	if v0["log"] != "[1:v1]" || v1["log"] != "[1:v1]" {
		t.Errorf("logs: leader=%s follower=%s", v0["log"], v1["log"])
	}
	if v0["commit"] != "1" {
		t.Errorf("leader commit = %s, want 1", v0["commit"])
	}
}

func TestFollowerRejectsStaleTermAppendEntries(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	// Node 0 leads term 1 (votes from 1).
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
	// Node 2 learns term 1 (vote request), then starts a term-2 election
	// and wins with node 1's vote.
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // rv(t1): grants
		engine.Command{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 2}, // rv(t2)
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 1}, // rvr(t2)
	)
	v2, _ := c.Observe(2)
	if v2["role"] != "leader" || v2["term"] != "2" {
		t.Fatalf("node 2 = %v", v2)
	}
	// The stale-term initial AppendEntries from node 0's leadership is
	// still queued for node 2: it must be rejected with the higher term,
	// and node 0 must step down on the response.
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // AE(t1) rejected
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // rvr(t1): ignored by leader
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // aer(t2): step down
	)
	v0, _ := c.Observe(0)
	if v0["role"] != "follower" || v0["term"] != "2" {
		t.Errorf("old leader did not step down: %v", v0)
	}
}

func TestDurableStateSurvivesCrash(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	electLeader(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
		engine.Command{Type: trace.EvCrash, Node: 0},
		engine.Command{Type: trace.EvRestart, Node: 0},
	)
	v0, _ := c.Observe(0)
	if v0["log"] != "[1:v1]" {
		t.Errorf("log after restart = %s (journal must survive)", v0["log"])
	}
	if v0["role"] != "follower" || v0["commit"] != "0" {
		t.Errorf("volatile state must reset: %v", v0)
	}
}

func TestDisconnectCrashBug(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs().With(bugdb.GSODisconnectCrash))
	electLeader(t, c)
	apply(t, c, engine.Command{Type: trace.EvPartition, Node: 0, Peer: 1})
	err := c.Apply(engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "heartbeat"})
	if _, ok := err.(*engine.CrashError); !ok {
		t.Fatalf("expected CrashError on heartbeat during disconnection, got %v", err)
	}
	// The fixed build skips the disconnected peer.
	c2 := cluster(t, 2, bugdb.NoBugs())
	apply(t, c2,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvPartition, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "heartbeat"},
	)
}

func TestClientRequestRejectedByFollower(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	apply(t, c, engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"})
	v0, _ := c.Observe(0)
	if v0["log"] != "[]" {
		t.Errorf("follower accepted a client request: %v", v0["log"])
	}
}
