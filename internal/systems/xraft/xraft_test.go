package xraft_test

import (
	"errors"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/systems/xraft"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func cluster(t *testing.T, n int, opt xraft.Options) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(engine.Config{
		Nodes:     n,
		Semantics: spec.TCP,
		Seed:      1,
		Timeouts: map[string]time.Duration{
			"election":  200 * time.Millisecond,
			"heartbeat": 60 * time.Millisecond,
		},
	}, func(id int) vos.Process { return xraft.New(opt) })
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

// elect drives node 0 to leadership without prevote.
func elect(t *testing.T, c *engine.Cluster) {
	t.Helper()
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
	v, _ := c.Observe(0)
	if v["role"] != "leader" {
		t.Fatalf("node 0 = %v", v)
	}
}

func TestApplyCallbackFiresOnCommit(t *testing.T) {
	var applied []string
	c, err := engine.NewCluster(engine.Config{
		Nodes:     2,
		Semantics: spec.TCP,
		Seed:      1,
		Timeouts:  map[string]time.Duration{"election": 200 * time.Millisecond, "heartbeat": 60 * time.Millisecond},
	}, func(id int) vos.Process {
		return xraft.New(xraft.Options{Apply: func(e xraft.Entry) {
			if id == 0 {
				applied = append(applied, e.Value)
			}
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	elect(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // initial AE
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "x=1"},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "heartbeat"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
	if len(applied) != 1 || applied[0] != "x=1" {
		t.Errorf("applied = %v", applied)
	}
}

func TestStaleVotesBugElectsWithOldVotes(t *testing.T) {
	// Node 0 starts election term 1 (no prevote); node 1 grants; the grant
	// stays queued. Node 0 times out into term 2 and — with the defect —
	// counts the stale term-1 grant toward term 2.
	c := cluster(t, 3, xraft.Options{Bugs: bugdb.NoBugs().With(bugdb.XRaftStaleVotes)})
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // rv(t1): grant queued
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}, // stale rvr(t1)
	)
	v0, _ := c.Observe(0)
	if v0["role"] != "leader" || v0["term"] != "2" {
		t.Fatalf("buggy build should elect on stale votes: %v", v0)
	}
	// The fixed build ignores the stale grant.
	c2 := cluster(t, 3, xraft.Options{})
	apply(t, c2,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
	v0, _ = c2.Observe(0)
	if v0["role"] != "candidate" {
		t.Errorf("fixed build must stay candidate: %v", v0)
	}
}

func TestConcurrentMapBugCrashesOnHigherTermResponse(t *testing.T) {
	// Node 1 reaches term 2 through node 2's election (no vote request of
	// its own toward node 0), rejects node 0's stale initial AppendEntries
	// with its higher term, and the buggy leader crashes on the response.
	c := cluster(t, 3, xraft.Options{Bugs: bugdb.NoBugs().With(bugdb.XRaftConcurrentMap)})
	elect(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0}, // rv(t1): node2 joins term 1
		engine.Command{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 2}, // rv(t2): node1 steps to t2
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // stale initial AE(t1): reject with t2
	)
	err := c.Apply(engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1}) // aer(t2) at the leader
	var ce *engine.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected the concurrent-modification crash, got %v", err)
	}
	// The fixed build steps down cleanly instead.
	c2 := cluster(t, 3, xraft.Options{})
	elect(t, c2)
	apply(t, c2,
		engine.Command{Type: trace.EvDeliver, Node: 2, Peer: 0},
		engine.Command{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 2},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
	v0, _ := c2.Observe(0)
	if v0["role"] != "follower" || v0["term"] != "2" {
		t.Errorf("fixed leader should step down: %v", v0)
	}
}
