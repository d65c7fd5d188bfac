package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// Network is the tests' view of the cluster's network.
func (c *Cluster) Network() testNet { return testNet{&c.net} }

type testNet struct{ net *spec.Net[frame] }

// Len is the number of frames in flight from src to dst.
func (n testNet) Len(src, dst int) int { return n.net.QueueLen(src, dst) }

// Connected reports whether the ordered pair src→dst carries traffic.
func (n testNet) Connected(src, dst int) bool { return !n.net.Cut(src).Has(dst) }

// failingStart is a pingNode whose Start panics once armed.
type failingStart struct {
	pingNode
	armed *bool
}

func (p *failingStart) Start(env vos.Env) {
	if *p.armed {
		panic("start failed")
	}
	p.pingNode.Start(env)
}

// TestFailedRestartLeavesNodeSevered: a restart whose Start panics leaves
// the node down and every link to it severed and empty, as a crash does, so
// a broadcast queues nothing for it.
func TestFailedRestartLeavesNodeSevered(t *testing.T) {
	armed := false
	c, err := NewCluster(Config{Nodes: 3, Semantics: spec.TCP, Seed: 1},
		func(id int) vos.Process { return &failingStart{armed: &armed} })
	if err != nil {
		t.Fatal(err)
	}
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})
	armed = true
	var ce *CrashError
	if err := c.Apply(Command{Type: trace.EvRestart, Node: 1}); !errors.As(err, &ce) || ce.Node != 1 {
		t.Fatalf("restart with a panicking start: err = %v, want node 1's CrashError", err)
	}
	if c.Up(1) || c.Process(1) != nil {
		t.Fatal("a node whose start failed is up")
	}
	for _, other := range []int{0, 2} {
		if c.Network().Connected(1, other) || c.Network().Connected(other, 1) {
			t.Errorf("node 1's link with node %d is open after a failed start", other)
		}
	}
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	if got := c.Network().Len(0, 1); got != 0 {
		t.Errorf("a broadcast queued %d frames for the down node 1", got)
	}
	if got := c.Network().Len(0, 2); got != 1 {
		t.Errorf("the broadcast queued %d frames for node 2, want 1", got)
	}
	armed = false
	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	if !c.Network().Connected(0, 1) || !c.Network().Connected(1, 0) {
		t.Error("a restart that starts reconnects the node")
	}
}

// TestNewClusterRefusesMoreNodesThanANodeSet: the network keeps its links in
// spec.NodeSets, so a cluster is at most spec.MaxNodes nodes.
func TestNewClusterRefusesMoreNodesThanANodeSet(t *testing.T) {
	cfg := Config{Nodes: spec.MaxNodes + 1, Semantics: spec.UDP, Timeouts: map[string]time.Duration{}}
	_, err := NewCluster(cfg, func(id int) vos.Process { return &pingNode{} })
	if err == nil || !strings.Contains(err.Error(), "65 nodes, more than the 64") {
		t.Fatalf("NewCluster(%d nodes) err = %v, want a refusal", cfg.Nodes, err)
	}
	cfg.Nodes = spec.MaxNodes
	if _, err := NewCluster(cfg, func(id int) vos.Process { return &pingNode{} }); err != nil {
		t.Fatalf("NewCluster(%d nodes): %v", cfg.Nodes, err)
	}
}
