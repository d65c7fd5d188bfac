package integrations

import (
	"bytes"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// dirtyBudget bounds the search to the shortest crash-consistency
// counterexample: elect a leader, commit one entry, dirty-crash a follower.
func dirtyBudget() spec.Budget {
	return spec.Budget{
		Name:            "dirty",
		MaxTimeouts:     3,
		MaxRequests:     1,
		MaxCrashes:      1,
		MaxDirtyCrashes: 1,
		MaxBuffer:       4,
	}
}

// The tentpole acceptance check: with the fsync-skipping defect enabled and
// a dirty-crash budget, spec-level model checking produces a LogDurability
// counterexample (a committed entry lost with the unsynced log suffix), and
// deterministic replay confirms it at the implementation level.
func TestDirtyCrashCounterexampleConfirmed(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs().With(bugdb.GSOUnsyncedLog))
	st.Budget = dirtyBudget()
	res := st.Check(explorer.DefaultOptions())
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("model checking found no violation (%d states)", res.DistinctStates)
	}
	if v.Invariant != "LogDurability" {
		t.Fatalf("violated %s, want LogDurability:\n%v", v.Invariant, v.Err)
	}
	dirty := false
	for _, e := range v.Trace.Events() {
		if e.Type == trace.EvCrashDirty {
			dirty = true
		}
	}
	if !dirty {
		t.Fatalf("counterexample has no dirty-crash step:\n%s", v.Trace.Format(false))
	}
	conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Confirmed {
		t.Fatalf("bug not confirmed at implementation level: %s", conf.Divergence.Describe())
	}
}

// Without the defect the same budget finds no violation: the fault model
// itself must not create false alarms on correct fsync placement.
func TestDirtyCrashNoFalseAlarmWhenSynced(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs())
	b := dirtyBudget() // trimmed so exhausting the space stays fast
	b.MaxTimeouts = 2
	b.MaxBuffer = 3
	st.Budget = b
	res := st.Check(explorer.DefaultOptions())
	if v := res.FirstViolation(); v != nil {
		t.Fatalf("correct implementation's spec violated %s:\n%s", v.Invariant, v.Trace.Format(false))
	}
	if !res.Exhausted {
		t.Fatalf("bounded space not exhausted: %s", res.StopReason)
	}
}

// Replaying the counterexample twice with the same seed must leave both
// implementation clusters with byte-identical durable stores — the paper's
// determinism requirement extended to the persistence layer.
func TestDirtyCrashReplayDurableStateDeterministic(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs().With(bugdb.GSOUnsyncedLog))
	st.Budget = dirtyBudget()
	res := st.Check(explorer.DefaultOptions())
	v := res.FirstViolation()
	if v == nil {
		t.Fatal("model checking found no violation")
	}
	var dumps [][]byte
	for run := 0; run < 2; run++ {
		cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, 1)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		conf, err := replay.ConfirmBug(v.Trace, cluster, replay.Options{
			IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The injected fault shows up in the metrics registry, and from
		// there in any -metrics-out snapshot.
		if got := reg.Counter("engine.faults.dirty_crashes").Value(); got != 1 {
			t.Errorf("run %d: engine.faults.dirty_crashes = %d, want 1", run, got)
		}
		if !conf.Confirmed {
			t.Fatalf("run %d not confirmed: %s", run, conf.Divergence.Describe())
		}
		dumps = append(dumps, cluster.DumpDurable())
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf("same-seed replays left different durable state:\n%s\nvs\n%s", dumps[0], dumps[1])
	}
}
