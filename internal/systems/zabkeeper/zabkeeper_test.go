package zabkeeper_test

import (
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/systems/zabkeeper"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func cluster(t *testing.T, n int, bugs bugdb.Set) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(engine.Config{
		Nodes:     n,
		Semantics: spec.TCP,
		Seed:      1,
		Timeouts:  map[string]time.Duration{"election": 200 * time.Millisecond},
	}, func(id int) vos.Process { return zabkeeper.New(bugs) })
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

// leadNode2 drives the FLE+sync handshake: node 2 (highest id) wins the
// election, node 0 follows and syncs, and the epoch activates.
func leadNode2(t *testing.T, c *engine.Cluster) {
	t.Helper()
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // notif: node 0 adopts + follows
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // node 0's notif: node 2 leads
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // finfo
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // sync
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // ackld: activated
	)
	v2, _ := c.Observe(2)
	if v2["state"] != "leading" || v2["epoch"] != "1" {
		t.Fatalf("node 2 = %v", v2)
	}
}

func TestElectionSyncAndBroadcast(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	leadNode2(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvRequest, Node: 2, Payload: "v1"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // prop
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // ack: commit
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // commit msg
	)
	v2, _ := c.Observe(2)
	v0, _ := c.Observe(0)
	if v2["committed"] != "1" || v0["committed"] != "1" {
		t.Errorf("committed: leader=%s follower=%s", v2["committed"], v0["committed"])
	}
	if v0["history"] != "[1.1:v1]" {
		t.Errorf("follower history = %s", v0["history"])
	}
}

func TestFollowerRejectsRequests(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	apply(t, c, engine.Command{Type: trace.EvRequest, Node: 1, Payload: "v1"})
	v1, _ := c.Observe(1)
	if v1["history"] != "[]" {
		t.Errorf("non-leader accepted a proposal: %v", v1)
	}
}

func TestHistorySurvivesCrash(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	leadNode2(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvRequest, Node: 2, Payload: "v1"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2},
		engine.Command{Type: trace.EvCrash, Node: 0},
		engine.Command{Type: trace.EvRestart, Node: 0},
	)
	v0, _ := c.Observe(0)
	if v0["history"] != "[1.1:v1]" || v0["epoch"] != "1" {
		t.Errorf("durable state lost: %v", v0)
	}
	if v0["state"] != "looking" || v0["committed"] != "0" {
		t.Errorf("volatile state must reset: %v", v0)
	}
}

func TestSettledNodeAnswersLookingPeer(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	leadNode2(t, c)
	// Node 1 wakes up and asks around; the leader answers with its vote and
	// node 1 joins as a follower.
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 1, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 1}, // notif at leader
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 2}, // leader's answer
	)
	v1, _ := c.Observe(1)
	if v1["state"] != "following" || v1["leader"] != "2" {
		t.Errorf("node 1 should join the ensemble: %v", v1)
	}
}

func TestEpochPromiseRejectsStaleSync(t *testing.T) {
	c := cluster(t, 3, bugdb.NoBugs())
	leadNode2(t, c)
	v0, _ := c.Observe(0)
	if v0["epoch"] != "1" {
		t.Fatalf("follower epoch = %s", v0["epoch"])
	}
	// Any later SYNC at or below epoch 1 must be ignored: epochs only grow.
	// A full re-election round establishes epoch 2.
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // notif r2: adopt + follow + finfo
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // node 0's own-vote notif: recorded
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // adopted-vote notif: node 2 leads
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // finfo: sync sent
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 2}, // sync: epoch 2 accepted
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // ackld: epoch 2 activated
	)
	v0, _ = c.Observe(0)
	v2, _ := c.Observe(2)
	if v0["epoch"] != "2" || v2["epoch"] != "2" {
		t.Errorf("re-election should establish epoch 2: follower=%s leader=%s", v0["epoch"], v2["epoch"])
	}
	if v2["state"] != "leading" {
		t.Errorf("node 2 = %v", v2)
	}
}
