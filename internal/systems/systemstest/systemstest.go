// Package systemstest holds the observation test every integrated system
// runs against its own map reference (each system's ObserveReference, the
// rendering its slot Observe replaced).
package systemstest

import (
	"maps"
	"strconv"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// AssertObserveMatches replays random specification walks of the named
// integrated system on its implementation — 50 walks of depth 30 on the
// fixed build, 50 on the verification-defect build — and after every event
// holds each node's slot rendering (ObserveSlots in the cluster's schema,
// mapped back through it) to ref, the system's map rendering of one
// process, plus "status" "up"; a crashed node must render {"status":
// "crashed"} and nothing else. The walks must crash a node.
func AssertObserveMatches(t *testing.T, system string, ref func(vos.Process) map[string]string) {
	t.Helper()
	sys, err := integrations.Get(system)
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, bugs := range []bugdb.Set{bugdb.NoBugs(), integrations.VerificationBugs(system)} {
		st := sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugs)
		sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{MaxDepth: 30, Seed: 1})
		for w := int64(1); w <= 50; w++ {
			c, err := sys.NewCluster(st.Config, st.ImplBugs, w)
			if err != nil {
				t.Fatal(err)
			}
			slots := c.Schema().Clear(nil)
			for i, step := range sim.Walk(w).Trace.Steps {
				cmd, ok := replay.Convert(step.Event)
				if !ok {
					continue
				}
				if err := c.Apply(cmd); err != nil {
					// A defect may crash the implementation; the states
					// before it were checked.
					break
				}
				c.ObserveSlots(c.Schema(), slots)
				got := byNode(c.Schema().Map(slots), c.N())
				for n := 0; n < c.N(); n++ {
					want := map[string]string{"status": "crashed"}
					if p := c.Process(n); p != nil {
						want = ref(p)
						want["status"] = "up"
					} else {
						crashed++
					}
					if !maps.Equal(got[n], want) {
						t.Fatalf("%v walk %d step %d (%s), node %d:\n got %v\nwant %v", bugs, w, i, step.Event, n, got[n], want)
					}
				}
			}
		}
	}
	if crashed == 0 {
		t.Fatal("no walk crashed a node")
	}
}

// byNode splits a rendered map's per-node keys "name[i]" into one map per
// node, keyed by name; the network variables are dropped.
func byNode(m map[string]string, n int) []map[string]string {
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = map[string]string{}
	}
	for k, v := range m {
		open := strings.IndexByte(k, '[')
		if open < 0 || strings.HasPrefix(k, "net[") {
			continue
		}
		i, err := strconv.Atoi(k[open+1 : len(k)-1])
		if err == nil && i < n {
			out[i][k[:open]] = v
		}
	}
	return out
}
