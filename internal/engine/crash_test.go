package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// newBufferedCluster builds a cluster whose stores buffer writes until an
// explicit Sync — the crash-consistency fault model's substrate. pingNode
// never calls Sync, so all its persisted state rides in the journal.
func newBufferedCluster(t *testing.T, nodes int, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Nodes:     nodes,
		Semantics: spec.TCP,
		Seed:      seed,
		Timeouts:  map[string]time.Duration{"election": 200 * time.Millisecond},
		Buffered:  true,
	}, func(id int) vos.Process { return &pingNode{} })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDirtyCrashLosesUnsyncedWrites(t *testing.T) {
	c := newBufferedCluster(t, 2, 1)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	// pings=1 is journalled but unsynced; a dirty crash discards it.
	apply(t, c, Command{Type: trace.EvCrashDirty, Node: 1})
	if c.Up(1) {
		t.Fatal("node should be down")
	}
	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	vars, _ := c.Observe(1)
	if vars["pings"] != "0" {
		t.Errorf("pings = %s, want 0 (unsynced write must be lost)", vars["pings"])
	}
	if c.Process(1).(*pingNode).restored {
		t.Error("restart found durable state that was never synced")
	}
}

func TestCleanCrashOnBufferedStoreKeepsWrites(t *testing.T) {
	c := newBufferedCluster(t, 2, 1)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	// Legacy EvCrash models an atomic-persistence crash: the journal is
	// flushed, preserving pre-existing (pre-fault-model) semantics.
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})
	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	vars, _ := c.Observe(1)
	if vars["pings"] != "1" {
		t.Errorf("pings = %s, want 1 (clean crash flushes the journal)", vars["pings"])
	}
}

func TestDirtyCrashUnknownModeRejected(t *testing.T) {
	c := newBufferedCluster(t, 2, 1)
	if err := c.Apply(Command{Type: trace.EvCrashDirty, Node: 1, Payload: "fsync-maybe"}); err == nil {
		t.Error("unknown crash mode should be rejected")
	}
	if !c.Up(1) {
		t.Error("rejected command must not crash the node")
	}
}

// tornScenario queues three unsynced writes on node 1 and torn-crashes it.
func tornScenario(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 3; i++ {
		apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
		apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	}
	apply(t, c, Command{Type: trace.EvCrashDirty, Node: 1, Payload: string(vos.CrashTorn)})
}

func TestTornCrashDeterministicAcrossRuns(t *testing.T) {
	a := newBufferedCluster(t, 2, 7)
	b := newBufferedCluster(t, 2, 7)
	tornScenario(t, a)
	tornScenario(t, b)
	// Same seed, same fault stream, same torn cut: the durable stores must
	// be byte-identical — the acceptance check for replay determinism.
	if !bytes.Equal(a.DumpDurable(), b.DumpDurable()) {
		t.Fatalf("same-seed torn crashes diverged:\n%s\nvs\n%s", a.DumpDurable(), b.DumpDurable())
	}
}

// TestFaultStreamsPinned pins what the seeded streams draw: the cut points of
// two successive torn crashes for eight seeds, and each node stream's first
// draw. The streams are seeded on first use; the values are those the
// streams gave when every cluster seeded them at boot, which a change in
// seed, order or source would move while two runs of the same code still
// agreed (TestTornCrashDeterministicAcrossRuns).
func TestFaultStreamsPinned(t *testing.T) {
	want := map[int64][2]string{
		1: {"2", "1"}, 2: {"1", "3"}, 3: {"2", "0"}, 4: {"1", "0"},
		5: {"3", "3"}, 6: {"3", "2"}, 7: {"0", "4"}, 8: {"3", "5"},
	}
	for seed, cuts := range want {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		c := newBufferedCluster(t, 2, seed)
		c.SetTracer(tr)
		tornScenario(t, c)
		apply(t, c, Command{Type: trace.EvRestart, Node: 1})
		for i := 0; i < 5; i++ {
			apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
			apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
		}
		apply(t, c, Command{Type: trace.EvCrashDirty, Node: 1, Payload: string(vos.CrashTorn)})
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range evs {
			if e.Kind == "dirty-crash" {
				got = append(got, e.Detail["cut"])
			}
		}
		if len(got) != 2 || got[0] != cuts[0] || got[1] != cuts[1] {
			t.Errorf("seed %d: torn cuts %v, want %v", seed, got, cuts)
		}
	}
	c := newBufferedCluster(t, 2, 7)
	for id, first := range []int64{8475284246537043955, 2838042580858526449} {
		if got := (&nodeEnv{c: c, id: id}).Rand().Int63(); got != first {
			t.Errorf("node %d stream (seed 7) first draw %d, want %d", id, got, first)
		}
	}
}

func TestPanicToleratedBecomesCrashRestart(t *testing.T) {
	c := newBufferedCluster(t, 2, 1)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	c.SetPanicPolicy(PanicPolicy{
		Tolerate:        true,
		MaxAutoRestarts: 1,
		Mode:            vos.CrashLoseUnsynced,
		Backoff:         10 * time.Millisecond,
	})
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	before := c.SimulatedCost()

	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "boom"})
	if err := c.Apply(Command{Type: trace.EvDeliver, Node: 1, Peer: 0}); err != nil {
		t.Fatalf("tolerated panic returned error: %v", err)
	}
	if !c.Up(1) {
		t.Fatal("node should have been auto-restarted")
	}
	// The injected lose-unsynced crash discarded the journalled pings=1.
	vars, _ := c.Observe(1)
	if vars["pings"] != "0" {
		t.Errorf("pings = %s, want 0 after lose-unsynced panic crash", vars["pings"])
	}
	if c.SimulatedCost() <= before {
		t.Error("auto-restart backoff should charge simulated cost")
	}
	if got := reg.Counter("engine.faults.panics_tolerated").Value(); got != 1 {
		t.Errorf("panics_tolerated = %d, want 1", got)
	}
	if got := reg.Counter("engine.faults.auto_restarts").Value(); got != 1 {
		t.Errorf("auto_restarts = %d, want 1", got)
	}

	// Second panic exhausts the restart budget: still no error, node down.
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "boom"})
	if err := c.Apply(Command{Type: trace.EvDeliver, Node: 1, Peer: 0}); err != nil {
		t.Fatalf("exhausted policy returned error: %v", err)
	}
	if c.Up(1) {
		t.Error("restart budget exhausted: node must stay down")
	}
}

// TestPanicSeversConnectionsAndRestartRecovers pins the fail-fast path with
// the policy off: the panic surfaces as CrashError, the node's connections
// are severed like any crash, and an explicit EvRestart recovers it from
// the durable store.
func TestPanicSeversConnectionsAndRestartRecovers(t *testing.T) {
	c := newTestCluster(t, 3) // unbuffered: Persist is immediately durable
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})

	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "boom"})
	err := c.Apply(Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CrashError", err)
	}
	for _, other := range []int{0, 2} {
		if c.Network().Connected(1, other) || c.Network().Connected(other, 1) {
			t.Errorf("connections to node %d should be severed after panic", other)
		}
	}

	apply(t, c, Command{Type: trace.EvRestart, Node: 1})
	vars, _ := c.Observe(1)
	if vars["pings"] != "1" {
		t.Errorf("restored pings = %s, want 1 (durable before panic)", vars["pings"])
	}
	if !c.Process(1).(*pingNode).restored {
		t.Error("restart should load the durable store")
	}
	if !c.Network().Connected(1, 0) {
		t.Error("restart should reconnect the node")
	}
}
