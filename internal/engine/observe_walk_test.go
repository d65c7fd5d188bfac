package engine_test

import (
	"maps"
	"strconv"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// observeReference is what ObserveAll returned before it filled its map from
// key tables: each node's Observe map re-keyed "name[i]" by concatenation,
// plus the network variables.
func observeReference(t *testing.T, c *engine.Cluster) map[string]string {
	t.Helper()
	out := c.NetworkVars()
	for i := 0; i < c.N(); i++ {
		vars, err := c.Observe(i)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range vars {
			out[k+"["+strconv.Itoa(i)+"]"] = v
		}
	}
	return out
}

// TestObserveIntoReusedMapMatchesFreshObserve replays random specification
// walks on two systems with different variable sets and, after every event,
// refills one map per walk with ObserveInto — the way replay.Run does — and
// holds it to a fresh ObserveAll and to the concatenating reference. The
// walks crash and restart nodes: a crashed node reports only its status, so a
// variable left over in the reused map from before the crash must not survive
// the refill.
func TestObserveIntoReusedMapMatchesFreshObserve(t *testing.T) {
	for _, name := range []string{"gosyncobj", "zabkeeper"} {
		t.Run(name, func(t *testing.T) {
			sys, err := integrations.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			st := sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugdb.NoBugs())
			sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{MaxDepth: 30, Seed: 3})
			kinds := map[trace.EventType]int{}
			for w := int64(0); w < 150; w++ {
				walk := sim.Walk(3 + w)
				c, err := sys.NewCluster(st.Config, st.ImplBugs, 3+w)
				if err != nil {
					t.Fatal(err)
				}
				reused := map[string]string{}
				for i, step := range walk.Trace.Steps {
					cmd, ok := replay.Convert(step.Event)
					if !ok {
						continue
					}
					if err := c.Apply(cmd); err != nil {
						t.Fatalf("walk %d step %d (%s): %v", w, i, step.Event, err)
					}
					kinds[step.Event.Type]++
					c.ObserveInto(reused)
					fresh, err := c.ObserveAll()
					if err != nil {
						t.Fatal(err)
					}
					if ref := observeReference(t, c); !maps.Equal(reused, fresh) || !maps.Equal(fresh, ref) {
						t.Fatalf("walk %d step %d (%s):\nreused %v\n fresh %v\n   ref %v", w, i, step.Event, reused, fresh, ref)
					}
				}
			}
			if kinds[trace.EvCrash] == 0 || kinds[trace.EvRestart] == 0 {
				t.Fatalf("walks never crashed and restarted a node: %v", kinds)
			}
		})
	}
}
