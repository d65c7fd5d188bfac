package engine

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// TestClusterTracerRecordsRun drives a small deterministic run with a
// tracer installed and checks that the JSONL record contains the engine
// steps, the vnet send/deliver flow, the clock advance, and the crash —
// i.e. a replayable record of what the implementation actually did.
func TestClusterTracerRecordsRun(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	c := newTestCluster(t, 2)
	c.SetTracer(tr)

	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})
	apply(t, c, Command{Type: trace.EvTimeout, Node: 0, Payload: "election"})
	apply(t, c, Command{Type: trace.EvCrash, Node: 1})

	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]map[string]int) // layer -> kind -> count
	for _, e := range evs {
		if kinds[e.Layer] == nil {
			kinds[e.Layer] = make(map[string]int)
		}
		kinds[e.Layer][e.Kind]++
	}
	for _, want := range []struct{ layer, kind string }{
		{"engine", string(trace.EvRequest)},
		{"engine", string(trace.EvDeliver)},
		{"engine", string(trace.EvTimeout)},
		{"engine", string(trace.EvCrash)},
		{"engine", "clock-advance"},
		{"vnet", "send"},
		{"vnet", "deliver"},
		{"vnet", "crash-node"},
	} {
		if kinds[want.layer][want.kind] == 0 {
			t.Errorf("no %s/%s event in trace (got %v)", want.layer, want.kind, kinds)
		}
	}
	// The ping triggers a pong reply: two sends, one deliver.
	if kinds["vnet"]["send"] != 2 || kinds["vnet"]["deliver"] != 1 {
		t.Errorf("vnet flow = %v, want 2 sends / 1 deliver", kinds["vnet"])
	}
}

// TestClusterMetricsMirror checks that engine and vnet counters appear in a
// registry snapshot and count what the network did.
func TestClusterMetricsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, 2)
	c.SetMetrics(reg)

	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	apply(t, c, Command{Type: trace.EvDeliver, Node: 1, Peer: 0})

	// The registry was installed after boot, so it counts from zero: the
	// ping and its pong sent, the ping delivered, the pong in flight.
	snap := reg.Snapshot()
	for key, want := range map[string]int64{"vnet.sent": 2, "vnet.delivered": 1, "vnet.dropped": 0, "vnet.duplicated": 0} {
		if snap[key].(int64) != want {
			t.Errorf("%s = %v, want %d", key, snap[key], want)
		}
	}
	if snap["vnet.buffered"].(int64) != int64(c.Network().Len(1, 0)) {
		t.Errorf("vnet.buffered = %v, want %d", snap["vnet.buffered"], c.Network().Len(1, 0))
	}
	if snap["engine.commands"].(int64) != int64(c.Events()) {
		t.Errorf("engine.commands = %v, want %d", snap["engine.commands"], c.Events())
	}
}

// TestObserveAllUsesPrecomputedKeys checks the hot-path key rendering:
// ObserveAll must produce exactly the fmt.Sprintf-shaped keys it produced
// before the key table was precomputed, and one net key per ordered pair.
func TestObserveAllUsesPrecomputedKeys(t *testing.T) {
	c := newTestCluster(t, 3)
	apply(t, c, Command{Type: trace.EvRequest, Node: 0, Payload: "ping"})
	all, err := c.ObserveAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"net[0->1]", "net[0->2]", "net[1->0]", "net[1->2]", "net[2->0]", "net[2->1]",
		"pings[0]", "pings[1]", "pings[2]", "status[0]"} {
		if _, ok := all[key]; !ok {
			t.Errorf("ObserveAll missing key %q", key)
		}
	}
	if all["net[0->1]"] != "1" || all["net[0->2]"] != "1" {
		t.Errorf("request fan-out not visible: net[0->1]=%s net[0->2]=%s", all["net[0->1]"], all["net[0->2]"])
	}
	nets := 0
	for key := range all {
		if strings.HasPrefix(key, "net[") {
			nets++
		}
	}
	if nets != 6 {
		t.Errorf("ObserveAll has %d net keys, want 6", nets)
	}
}

// TestLogObserverExtractEdgeCases covers the Extract contract: variables
// with no matching line are absent (not empty), multiple matches on one
// line take that pattern's first submatch per line scan, and across lines
// the last match wins.
func TestLogObserverExtractEdgeCases(t *testing.T) {
	o, err := NewLogObserver(map[string]string{
		"term":   `term=(\d+)`,
		"leader": `leader=(\w+)`,
		"absent": `never-logged=(\d+)`,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No match at all: the key must be absent from the result map.
	out := o.Extract([]string{"nothing to see here"})
	if len(out) != 0 {
		t.Fatalf("expected empty extraction, got %v", out)
	}

	// Multiple matches on one line: FindStringSubmatch takes the leftmost.
	out = o.Extract([]string{"term=3 then later term=7"})
	if out["term"] != "3" {
		t.Errorf("leftmost match on one line: term = %q, want 3", out["term"])
	}

	// Across lines the last matching line wins (observation reads the most
	// recent state the implementation logged).
	out = o.Extract([]string{
		"term=1 leader=none",
		"irrelevant line",
		"term=4",
		"leader=n2",
	})
	if out["term"] != "4" {
		t.Errorf("last-match-wins: term = %q, want 4", out["term"])
	}
	if out["leader"] != "n2" {
		t.Errorf("last-match-wins: leader = %q, want n2", out["leader"])
	}
	if _, ok := out["absent"]; ok {
		t.Error("absent variable must not appear")
	}

	// Empty input extracts nothing.
	if got := o.Extract(nil); len(got) != 0 {
		t.Errorf("nil lines extracted %v", got)
	}
}
