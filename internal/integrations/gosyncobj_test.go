package integrations

import (
	"errors"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
)

func gsoSession(t *testing.T, bugs bugdb.Set) *sandtable.SandTable {
	t.Helper()
	sys, err := Get("gosyncobj")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
	return sandtable.New(sys, cfg, defaultBudget(), bugs)
}

// The heart of §3.2: after alignment, random spec traces replay on the
// implementation with every compared variable agreeing at every step.
func TestGoSyncObjConformancePasses(t *testing.T) {
	for _, bugs := range []bugdb.Set{VerificationBugs("gosyncobj"), bugdb.NoBugs()} {
		st := gsoSession(t, bugs)
		rep, err := st.Conform(conformance.Options{Walks: 120, WalkDepth: 25, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("discrepancy with bugs=%v:\n%v\ntrace:\n%s", bugs, rep.Discrepancy, rep.Discrepancy.Trace.Format(false))
		}
		if rep.EventsChecked == 0 {
			t.Fatal("conformance checked no events")
		}
	}
}

// Figure 4: an intentionally wrong specification (modelling a defect the
// implementation does not have) is caught by conformance checking.
func TestConformanceDetectsSpecDiscrepancy(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs())
	st.SpecBugs = bugdb.NoBugs().With(bugdb.GSOCommitNonMonotonic) // spec wrong, impl fixed
	rep, err := st.Conform(conformance.Options{Walks: 100, WalkDepth: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("conformance failed to detect a spec/impl discrepancy")
	}
	if len(rep.Discrepancy.Step.DiffKeys) == 0 {
		t.Fatalf("expected diverging variables, got %v", rep.Discrepancy)
	}
}

// GoSyncObj#1: the unhandled exception on heartbeat-during-disconnection is
// the kind of by-product bug conformance checking surfaces (§3.2).
func TestConformanceFindsDisconnectCrash(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs())
	st.ImplBugs = bugdb.NoBugs().With(bugdb.GSODisconnectCrash)
	rep, err := st.Conform(conformance.Options{Walks: 600, WalkDepth: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("conformance did not surface the crash bug")
	}
	var ce *engine.CrashError
	if !errors.As(rep.Discrepancy.Step.Err, &ce) {
		t.Fatalf("expected an implementation crash, got %v", rep.Discrepancy)
	}
}

// §3.4: every model-checking violation is confirmed at the implementation
// level by deterministic replay — no false alarms.
func TestConfirmBugsAtImplementationLevel(t *testing.T) {
	for _, key := range []bugdb.Key{
		bugdb.GSOCommitNonMonotonic,
		bugdb.GSONextLEMatch,
		bugdb.GSOMatchNonMonotonic,
		bugdb.GSOCommitOldTerm,
	} {
		st := gsoSession(t, bugdb.NoBugs().With(key))
		st.Config = spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}}
		res := st.Check(explorer.DefaultOptions())
		v := res.FirstViolation()
		if v == nil {
			t.Fatalf("%s: model checking found no violation", key)
		}
		conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !conf.Confirmed {
			t.Fatalf("%s: bug not confirmed at implementation level: %s", key, conf.Divergence.Describe())
		}
	}
}

// §3.4 fix validation: with the defect fixed on both levels, conformance
// passes and (bounded) model checking is clean.
func TestValidateFix(t *testing.T) {
	st := gsoSession(t, bugdb.NoBugs().With(bugdb.GSOCommitNonMonotonic))
	st.Config = spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}}
	st.Budget = spec.Budget{Name: "tiny", MaxTimeouts: 4, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 1, MaxPartitions: 1, MaxBuffer: 3}
	rep, err := st.ValidateFix(
		[]bugdb.Key{bugdb.GSOCommitNonMonotonic},
		conformance.Options{Walks: 60, WalkDepth: 20, Seed: 5},
		explorer.DefaultOptions(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fix did not validate: conformance=%v check=%v", rep.Conformance.Discrepancy, rep.Check.FirstViolation())
	}
	if !rep.Check.Exhausted {
		t.Errorf("fix validation should exhaust the bounded space, stopped: %s", rep.Check.StopReason)
	}
}
