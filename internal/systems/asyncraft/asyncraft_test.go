package asyncraft_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/systems/asyncraft"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

func cluster(t *testing.T, n int, bugs bugdb.Set) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(engine.Config{
		Nodes:     n,
		Semantics: spec.UDP,
		Seed:      1,
		Timeouts: map[string]time.Duration{
			"election":  200 * time.Millisecond,
			"heartbeat": 60 * time.Millisecond,
		},
	}, func(id int) vos.Process { return asyncraft.New(bugs) })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buffered is the number of messages in flight from src to dst, as the
// cluster renders its network.
func buffered(t *testing.T, c *engine.Cluster, src, dst int) int {
	t.Helper()
	all, err := c.ObserveAll()
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(all["net["+strconv.Itoa(src)+"->"+strconv.Itoa(dst)+"]"])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func apply(t *testing.T, c *engine.Cluster, cmds ...engine.Command) {
	t.Helper()
	for _, cmd := range cmds {
		if err := c.Apply(cmd); err != nil {
			t.Fatalf("apply %v: %v", cmd, err)
		}
	}
}

func elect(t *testing.T, c *engine.Cluster) {
	t.Helper()
	apply(t, c,
		engine.Command{Type: trace.EvTimeout, Node: 0, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},
	)
}

func TestReplicationAndCommit(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs())
	elect(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1}, // eager AE
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1},           // ack
	)
	v0, _ := c.Observe(0)
	if v0["commit"] != "1" {
		t.Errorf("commit = %s, want 1", v0["commit"])
	}
}

func TestLogEraseBugDestroysMatchedEntries(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs().With(bugdb.ARLogErase))
	elect(t, c)
	apply(t, c,
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
		// Duplicate the EMPTY initial AppendEntries (index 0) so an older
		// message survives delivery of the newer one.
		engine.Command{Type: trace.EvDuplicate, Node: 1, Peer: 0, Index: 0},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1}, // AE [v1]: appends
	)
	v1, _ := c.Observe(1)
	if v1["log"] != "[1:v1]" {
		t.Fatalf("follower log = %s", v1["log"])
	}
	// Deliver the duplicated old empty AE: the buggy blind truncation
	// erases the already-matched entry.
	apply(t, c, engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1})
	v1, _ = c.Observe(1)
	if v1["log"] != "[]" {
		t.Fatalf("buggy build should erase the entry, log = %s", v1["log"])
	}
	// The fixed build keeps it.
	c2 := cluster(t, 2, bugdb.NoBugs())
	elect(t, c2)
	apply(t, c2,
		engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
		engine.Command{Type: trace.EvDuplicate, Node: 1, Peer: 0, Index: 0},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1},
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1},
	)
	v1, _ = c2.Observe(1)
	if v1["log"] != "[1:v1]" {
		t.Errorf("fixed build lost the entry: %s", v1["log"])
	}
}

func TestMissingKeyCrashBug(t *testing.T) {
	c := cluster(t, 2, bugdb.NoBugs().With(bugdb.ARMissingKeyCrash))
	elect(t, c)
	// Follower 1 acks the initial AppendEntries; then node 0 steps down
	// (higher-term vote request) and the late ack blows up in the handler.
	apply(t, c,
		engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0}, // initial AE -> ack queued
		engine.Command{Type: trace.EvTimeout, Node: 1, Payload: "election"},
		engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1, Index: 1}, // rv(t2): step down
	)
	err := c.Apply(engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1, Index: 0}) // stale ack
	var ce *engine.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected the KeyError-style crash, got %v", err)
	}
}

func TestCommitLoopBreakBugBlocksProgress(t *testing.T) {
	// Leader 1 at term 2 with an old-term entry below a current-term entry:
	// the buggy loop stops at the old entry and never commits.
	run := func(bugs bugdb.Set) string {
		c := cluster(t, 2, bugs)
		elect(t, c)
		apply(t, c,
			engine.Command{Type: trace.EvRequest, Node: 0, Payload: "v1"},
			engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1}, // AE [v1]
			// Node 1 takes over (term 2) with v1 in its log.
			engine.Command{Type: trace.EvTimeout, Node: 1, Payload: "election"},
			engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1, Index: 1}, // rv(t2): 0 grants
			engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: 1}, // rvr: leader
			engine.Command{Type: trace.EvRequest, Node: 1, Payload: "v2"},
		)
		// Deliver the eager AE for v2 to node 0, then the fresh ack back
		// (the ack lands at the tail of the 0->1 buffer).
		apply(t, c, engine.Command{Type: trace.EvDeliver, Node: 0, Peer: 1, Index: buffered(t, c, 1, 0) - 1})
		apply(t, c, engine.Command{Type: trace.EvDeliver, Node: 1, Peer: 0, Index: buffered(t, c, 0, 1) - 1})
		v1, _ := c.Observe(1)
		return v1["commit"]
	}
	if got := run(bugdb.NoBugs().With(bugdb.ARCommitLoopBreak)); got != "0" {
		t.Errorf("buggy build committed %s, want 0 (stuck)", got)
	}
	if got := run(bugdb.NoBugs()); got != "2" {
		t.Errorf("fixed build committed %s, want 2", got)
	}
}
