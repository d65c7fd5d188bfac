package integrations

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// twoPhaseRound is the conformance round as it ran before lock-step: each
// walk generated in full by Simulator.Walk, with every state's variable map,
// then replayed on a fresh cluster, comparing the spec map with the engine's
// map observation (ObserveAll) on the keys both render, in order of walks
// until the first discrepancy.
func twoPhaseRound(t *testing.T, st *sandtable.SandTable, walks, depth int, seed int64) *conformance.Report {
	t.Helper()
	sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{MaxDepth: depth, Seed: seed, RecordVars: true})
	rep := &conformance.Report{}
	for w := 0; w < walks; w++ {
		walk := sim.Walk(seed + int64(w))
		c, err := st.Sys.NewCluster(st.Config, st.ImplBugs, seed+int64(w))
		if err != nil {
			t.Fatal(err)
		}
		rep.Walks++
		for i, step := range walk.Trace.Steps {
			cmd, ok := replay.Convert(step.Event)
			if !ok {
				continue
			}
			rep.EventsChecked++
			sr := &replay.StepResult{Step: i, Event: step.Event}
			if sr.Err = c.Apply(cmd); sr.Err == nil {
				impl, err := c.ObserveAll()
				if err != nil {
					t.Fatal(err)
				}
				if sr.DiffKeys = mapDiff(step.Vars, impl, st.Sys.IgnoreVars); sr.DiffKeys != nil {
					sr.SpecVars, sr.ImplVars = step.Vars, impl
				} else if check := st.Sys.ResourceCheck; check != nil {
					sr.Err = check(c)
				}
			}
			if sr.Divergent() {
				rep.Discrepancy = &conformance.Discrepancy{Walk: w, Seed: seed + int64(w), Step: sr, Trace: walk.Trace}
				return rep
			}
		}
	}
	return rep
}

// mapDiff is the sorted keys both maps hold, ignore aside, with different
// values.
func mapDiff(spec, impl map[string]string, ignore []string) []string {
	var keys []string
	for k, v := range spec {
		if w, ok := impl[k]; ok && v != w && !slices.Contains(ignore, k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestLockStepMatchesTwoPhase holds the lock-step round to the two-phase
// round it replaced, field by field, for every integrated system in its
// fixed build, its verification-defect build (the specification models the
// same defects), and — where the catalogue has defects found at other
// stages — an implementation carrying every defect under the
// verification-defect specification, whose rounds diverge (crashes,
// resource checks, diverging variables). Each row runs 200 walks of depth
// 30 at W = 1, 2 and 4.
func TestLockStepMatchesTwoPhase(t *testing.T) {
	const walks, depth, seed = 200, 30, 1
	diverged := 0
	for _, name := range Names() {
		sys, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		verification := VerificationBugs(name)
		rows := map[string]*sandtable.SandTable{
			"fixed":        sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugdb.NoBugs()),
			"verification": sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, verification),
		}
		if all := bugdb.AllBugs(name); !maps.Equal(all, verification) {
			st := sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, verification)
			st.ImplBugs = all
			rows["all-defects"] = st
		}
		for row, st := range rows {
			t.Run(name+"/"+row, func(t *testing.T) {
				want := twoPhaseRound(t, st, walks, depth, seed)
				if want.Discrepancy != nil {
					diverged++
				}
				for _, workers := range []int{1, 2, 4} {
					got, err := st.Conform(conformance.Options{Walks: walks, WalkDepth: depth, Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if msg := sameReport(got, want); msg != "" {
						t.Errorf("W=%d: %s", workers, msg)
					}
				}
			})
		}
	}
	if diverged == 0 {
		t.Error("no row diverged: the discrepancy fields were never compared")
	}
}

// sameReport returns what differs between a lock-step report and the
// two-phase reference, or "".
func sameReport(got, want *conformance.Report) string {
	if got.Walks != want.Walks || got.EventsChecked != want.EventsChecked {
		return fmt.Sprintf("walks/events %d/%d, two-phase %d/%d", got.Walks, got.EventsChecked, want.Walks, want.EventsChecked)
	}
	g, w := got.Discrepancy, want.Discrepancy
	if (g == nil) != (w == nil) {
		return fmt.Sprintf("discrepancy %v, two-phase %v", g, w)
	}
	if g == nil {
		return ""
	}
	gs, ws := g.Step, w.Step
	switch {
	case g.Walk != w.Walk || g.Seed != w.Seed || gs.Step != ws.Step:
		return fmt.Sprintf("walk %d seed %d step %d, two-phase walk %d seed %d step %d", g.Walk, g.Seed, gs.Step, w.Walk, w.Seed, ws.Step)
	case !slices.Equal(gs.DiffKeys, ws.DiffKeys):
		return fmt.Sprintf("diff keys %v, two-phase %v", gs.DiffKeys, ws.DiffKeys)
	case !maps.Equal(gs.SpecVars, ws.SpecVars):
		return fmt.Sprintf("spec vars %v, two-phase %v", gs.SpecVars, ws.SpecVars)
	case !maps.Equal(gs.ImplVars, ws.ImplVars):
		return fmt.Sprintf("impl vars %v, two-phase %v", gs.ImplVars, ws.ImplVars)
	case (gs.Err == nil) != (ws.Err == nil) || gs.Err != nil && gs.Err.Error() != ws.Err.Error():
		return fmt.Sprintf("step error %v, two-phase %v", gs.Err, ws.Err)
	case g.Error() != w.Error():
		return fmt.Sprintf("error text %q, two-phase %q", g.Error(), w.Error())
	}
	if gb, wb := encode(g.Trace), encode(w.Trace); !bytes.Equal(gb, wb) {
		return fmt.Sprintf("trace JSON differs:\n%s\ntwo-phase:\n%s", gb, wb)
	}
	return ""
}

func encode(tr *trace.Trace) []byte {
	var b bytes.Buffer
	if err := tr.Encode(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}
