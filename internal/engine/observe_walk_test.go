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

// observeReference is the implementation rendering without slots: each up
// node's Observe buffer re-keyed "name[i]" by concatenation, "status[i]",
// and the network's queue lengths.
func observeReference(c *engine.Cluster) map[string]string {
	out := map[string]string{}
	for src := 0; src < c.N(); src++ {
		for dst := 0; dst < c.N(); dst++ {
			if src != dst {
				out["net["+strconv.Itoa(src)+"->"+strconv.Itoa(dst)+"]"] = strconv.Itoa(c.Network().Len(src, dst))
			}
		}
	}
	for i := 0; i < c.N(); i++ {
		suffix := "[" + strconv.Itoa(i) + "]"
		p := c.Process(i)
		if p == nil {
			out["status"+suffix] = "crashed"
			continue
		}
		out["status"+suffix] = "up"
		buf := make([]string, len(p.Fields()))
		for f := range buf {
			buf[f] = trace.Absent
		}
		p.Observe(buf)
		for f, v := range buf {
			if v != trace.Absent {
				out[p.Fields()[f]+suffix] = v
			}
		}
	}
	return out
}

// TestObserveSlotsReusedMatchesFresh replays random specification walks on
// two systems with different variable sets and, after every event, refills
// two slot vectors per walk with ObserveSlots — one in the cluster's own
// schema, one in the specification's schema extended by the cluster's
// fields, the way conformance compares — and holds both, mapped back through
// their schemas, to a fresh ObserveAll and to the concatenating reference.
// The walks crash and restart nodes: a crashed node reports only its status,
// so a variable left over in a reused vector from before the crash must not
// survive the refill.
func TestObserveSlotsReusedMatchesFresh(t *testing.T) {
	for _, name := range []string{"gosyncobj", "zabkeeper"} {
		t.Run(name, func(t *testing.T) {
			sys, err := integrations.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			st := sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugdb.NoBugs())
			m := st.Machine()
			sim := explorer.NewSimulator(m, explorer.SimOptions{MaxDepth: 30, Seed: 3})
			kinds := map[trace.EventType]int{}
			for w := int64(0); w < 150; w++ {
				walk := sim.Walk(3 + w)
				c, err := sys.NewCluster(st.Config, st.ImplBugs, 3+w)
				if err != nil {
					t.Fatal(err)
				}
				own := c.Schema()
				wide := m.Init()[0].Schema().With(c.Fields())
				ownSlots, wideSlots := own.Clear(nil), wide.Clear(nil)
				for i, step := range walk.Trace.Steps {
					cmd, ok := replay.Convert(step.Event)
					if !ok {
						continue
					}
					if err := c.Apply(cmd); err != nil {
						t.Fatalf("walk %d step %d (%s): %v", w, i, step.Event, err)
					}
					kinds[step.Event.Type]++
					c.ObserveSlots(own, ownSlots)
					c.ObserveSlots(wide, wideSlots)
					fresh, err := c.ObserveAll()
					if err != nil {
						t.Fatal(err)
					}
					ref := observeReference(c)
					if got := own.Map(ownSlots); !maps.Equal(got, fresh) || !maps.Equal(fresh, ref) {
						t.Fatalf("walk %d step %d (%s):\nreused %v\n fresh %v\n   ref %v", w, i, step.Event, got, fresh, ref)
					}
					if got := wide.Map(wideSlots); !maps.Equal(got, ref) {
						t.Fatalf("walk %d step %d (%s): in the specification's schema\n got %v\nref %v", w, i, step.Event, got, ref)
					}
				}
			}
			if kinds[trace.EvCrash] == 0 || kinds[trace.EvRestart] == 0 {
				t.Fatalf("walks never crashed and restarted a node: %v", kinds)
			}
		})
	}
}
