package engine

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// pingNode is a minimal deterministic process used to exercise the engine:
// it counts received pings, replies with pongs, persists its counter, arms
// an election-style deadline, and can be told to panic.
type pingNode struct {
	env      vos.Env
	pings    int
	pongs    int
	ticks    int
	deadline time.Time
	restored bool
}

func (p *pingNode) Start(env vos.Env) {
	p.env = env
	if v, ok := env.Load("pings"); ok {
		p.pings, _ = strconv.Atoi(string(v))
		p.restored = true
	}
	p.deadline = env.Now().Add(100 * time.Millisecond)
	env.Logf("started node=%d pings=%d", env.ID(), p.pings)
}

func (p *pingNode) Receive(from int, msg []byte) {
	switch string(msg) {
	case "ping":
		p.pings++
		p.env.Persist("pings", []byte(strconv.Itoa(p.pings)))
		p.env.Send(from, []byte("pong"))
		p.env.Logf("got ping total=%d", p.pings)
	case "pong":
		p.pongs++
	case "boom":
		panic("unhandled exception in message handler")
	}
}

func (p *pingNode) Tick() {
	if p.env.Now().After(p.deadline) {
		p.ticks++
		p.deadline = p.env.Now().Add(100 * time.Millisecond)
		p.env.Logf("timer fired ticks=%d", p.ticks)
	}
}

func (p *pingNode) ClientRequest(payload string) {
	for i := 0; i < p.env.N(); i++ {
		if i != p.env.ID() {
			p.env.Send(i, []byte(payload))
		}
	}
}

func (p *pingNode) Fields() []string { return []string{"pings", "pongs", "ticks"} }

func (p *pingNode) Observe(dst []string) {
	dst[0], dst[1], dst[2] = strconv.Itoa(p.pings), strconv.Itoa(p.pongs), strconv.Itoa(p.ticks)
}

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Nodes:     nodes,
		Semantics: spec.TCP,
		Seed:      1,
		Timeouts:  map[string]time.Duration{"election": 200 * time.Millisecond},
	}, func(id int) vos.Process { return &pingNode{} })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func apply(t *testing.T, c *Cluster, cmd Command) {
	t.Helper()
	if err := c.Apply(cmd); err != nil {
		t.Fatalf("apply %v: %v", cmd, err)
	}
}

func TestDeliverAndReply(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	if c.Network().Len(0, 1) != 1 {
		t.Fatalf("buffered 0->1 = %d, want 1", c.Network().Len(0, 1))
	}
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	vars, err := c.Observe(1)
	if err != nil {
		t.Fatal(err)
	}
	if vars["pings"] != "1" {
		t.Errorf("pings = %s, want 1", vars["pings"])
	}
	// The pong reply is now buffered 1->0.
	if c.Network().Len(1, 0) != 1 {
		t.Fatalf("reply not buffered")
	}
	apply(t, c, Command{Type: trace.EvDeliver, Node: 0, Peer: 1})
	vars, _ = c.Observe(0)
	if vars["pongs"] != "1" {
		t.Errorf("pongs = %s, want 1", vars["pongs"])
	}
}

func TestTimeoutAdvancesVirtualClock(t *testing.T) {
	c := newTestCluster(t, 1)
	apply(t, c, Command{Type: trace.EvTimeout, Node: 0, Payload: "election"})
	vars, _ := c.Observe(0)
	if vars["ticks"] != "1" {
		t.Errorf("ticks = %s, want 1 (200ms advance beats the 100ms deadline)", vars["ticks"])
	}
}

func TestTimeoutUnknownKindRejected(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Apply(Command{Type: trace.EvTimeout, Node: 0, Payload: "nope"}); err == nil {
		t.Error("unknown timeout kind should be rejected")
	}
}

func TestCrashLosesVolatileKeepsDurable(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})

	if c.Up(1) {
		t.Fatal("node should be down")
	}
	vars, _ := c.Observe(1)
	if vars["status"] != "crashed" {
		t.Errorf("status = %s", vars["status"])
	}
	if err := c.Apply(Command{Type: trace.EvDeliver, Node: 1, Peer: 0}); err == nil {
		t.Error("delivery to crashed node should fail")
	}

	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	vars, _ = c.Observe(1)
	// pings was persisted before the crash; pongs (volatile) is gone.
	if vars["pings"] != "1" {
		t.Errorf("restored pings = %s, want 1 (durable)", vars["pings"])
	}
	p := c.Process(1).(*pingNode)
	if !p.restored {
		t.Error("restart should load the durable store")
	}
}

func TestRestartRespectsActivePartition(t *testing.T) {
	c := newTestCluster(t, 3)
	apply(t, c, Command{Type: trace.EvPartition, Node: 1, Peer: 2})
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})
	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	if !c.Network().Connected(0, 1) {
		t.Error("restart should reconnect to node 0")
	}
	if c.Network().Connected(1, 2) {
		t.Error("restart must not cross the still-active partition")
	}
	apply(t, c, Command{Type: trace.EvRecover, Node: 1, Peer: 2})
	if !c.Network().Connected(1, 2) {
		t.Error("heal should reconnect")
	}
}

// TestRestartLeavesDownPeerSevered: a restarting node reconnects only to
// peers that are up, as the specifications' restart does; the pair is
// reconnected when the other end restarts in turn.
func TestRestartLeavesDownPeerSevered(t *testing.T) {
	c := newTestCluster(t, 3)
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})
	apply(t, c, Command{Type: trace.EvCrash, Node: 2})
	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	if !c.Network().Connected(0, 1) || !c.Network().Connected(1, 0) {
		t.Error("restart should reconnect to the running node 0")
	}
	if c.Network().Connected(1, 2) || c.Network().Connected(2, 1) {
		t.Error("restart must not reconnect to the down node 2")
	}
	apply(t, c, Command{Type: trace.EvRestart, Node: 2})
	if !c.Network().Connected(1, 2) || !c.Network().Connected(2, 1) {
		t.Error("restarting node 2 should reconnect it to node 1")
	}
}

func TestPanicBecomesCrashError(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "boom"})
	err := c.Apply(Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CrashError", err)
	}
	if ce.Node != 1 {
		t.Errorf("crashed node = %d, want 1", ce.Node)
	}
	if c.Up(1) {
		t.Error("panicked node should be marked crashed")
	}
}

func TestObserveAllIncludesNetwork(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	all, err := c.ObserveAll()
	if err != nil {
		t.Fatal(err)
	}
	if all["net[0->1]"] != "1" {
		t.Errorf("net[0->1] = %s, want 1", all["net[0->1]"])
	}
	if all["pings[1]"] != "0" {
		t.Errorf("pings[1] = %s", all["pings[1]"])
	}
}

func TestLogObserverExtractsState(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	obs, err := NewLogObserver(map[string]string{"pings": `got ping total=(\d+)`})
	if err != nil {
		t.Fatal(err)
	}
	vars, err := c.ObserveLogs(1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if vars["pings"] != "1" {
		t.Errorf("log-extracted pings = %q, want 1", vars["pings"])
	}
}

func TestLogObserverValidation(t *testing.T) {
	if _, err := NewLogObserver(map[string]string{"bad": `no capture group`}); err == nil {
		t.Error("pattern without a capture group should be rejected")
	}
	if _, err := NewLogObserver(map[string]string{"bad": `([`}); err == nil {
		t.Error("invalid regexp should be rejected")
	}
}

func TestCostModelAccumulates(t *testing.T) {
	c, err := NewCluster(Config{
		Nodes:     1,
		Semantics: spec.TCP,
		Timeouts:  map[string]time.Duration{"election": time.Second},
		Cost: CostModel{
			ClusterInit: 2 * time.Second,
			PerEvent:    300 * time.Millisecond,
			PerTimeout:  time.Second,
		},
	}, func(id int) vos.Process { return &pingNode{} })
	if err != nil {
		t.Fatal(err)
	}
	apply(t, c, Command{Type: trace.EvTimeout, Node: 0, Payload: "election"})
	want := 2*time.Second + 300*time.Millisecond + time.Second
	if c.SimulatedCost() != want {
		t.Errorf("simulated cost = %v, want %v", c.SimulatedCost(), want)
	}
}

func TestDeterministicReplayProducesSameObservations(t *testing.T) {
	script := []Command{
		{Type: trace.EvRequest, Node: 0, Payload: "ping"},
		{Type: trace.EvDeliver, Node: 1, Peer: 0},
		{Type: trace.EvDeliver, Node: 2, Peer: 0},
		{Type: trace.EvDeliver, Node: 0, Peer: 1},
		{Type: trace.EvTimeout, Node: 2, Payload: "election"},
		{Type: trace.EvCrash, Node: 1},
		{Type: trace.EvRestart, Node: 1},
	}
	run := func() string {
		c := newTestCluster(t, 3)
		for _, cmd := range script {
			apply(t, c, cmd)
		}
		all, err := c.ObserveAll()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|events=%d", all, c.Events())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged:\n%s\n%s", a, b)
	}
}

func TestHistoryRecordsCommands(t *testing.T) {
	c := newTestCluster(t, 2)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	h := c.History()
	if len(h) != 2 || h[0].Type != trace.EvRequest || h[1].Type != trace.EvDeliver {
		t.Errorf("history = %v", h)
	}
}
