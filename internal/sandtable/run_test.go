package sandtable_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// The run layer is driven on the smallest configurations that show each
// behaviour: cleanRun exhausts ~1k states without a violation, violating is
// `make cluster`'s craft configuration (a depth-7 counterexample in well
// under a second), and bigRun is large enough to still be running when a
// deadline or a cancel lands.
func cleanRun(op string) (string, sandtable.Settings) {
	zero := 0
	set := sandtable.Defaults(op)
	set.Fixed, set.MaxTimeouts, set.MaxRequests, set.MaxCrashes, set.Workers = true, 2, 2, &zero, 1
	return "gosyncobj", set
}

func violating(op string) (string, sandtable.Settings) {
	set := sandtable.Defaults(op)
	set.Nodes, set.MaxTimeouts, set.MaxRequests, set.MaxBuffer, set.Workers = 3, 2, 1, 2, 1
	return "craft", set
}

func bigRun(op string) (string, sandtable.Settings) {
	set := sandtable.Defaults(op)
	set.Fixed, set.Nodes, set.Workers, set.Walks = true, 3, 1, 1_000_000
	return "gosyncobj", set
}

func session(t *testing.T, system string, set sandtable.Settings) *sandtable.SandTable {
	t.Helper()
	sys, err := integrations.Get(system)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sandtable.NewSession(sys, set)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// searchOps are the ops that search until something stops them.
var searchOps = map[string]func(*sandtable.SandTable, context.Context, sandtable.Settings, sandtable.Sinks) (*sandtable.Outcome, error){
	"check":    (*sandtable.SandTable).RunCheck,
	"simulate": (*sandtable.SandTable).RunSimulate,
	"conform":  (*sandtable.SandTable).RunConform,
}

// wantKeys fails unless every key is in the summary — "well-formed" for a
// run that was cut short.
func wantKeys(t *testing.T, summary map[string]any, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := summary[k]; !ok {
			t.Errorf("summary lacks %q: %v", k, summary)
		}
	}
}

func TestNewSession(t *testing.T) {
	sys, _ := integrations.Get("gosyncobj")
	if _, err := sandtable.NewSession(sys, sandtable.Settings{Bug: "NoSuch#1"}); err == nil {
		t.Error("unknown bug id must fail")
	}
	if _, err := sandtable.NewSession(sys, sandtable.Settings{Nodes: 65}); err == nil {
		t.Error("more nodes than a specification state indexes must fail, not panic")
	}
	zero := 0
	st, err := sandtable.NewSession(sys, sandtable.Settings{
		Bug: "GoSyncObj#2", Nodes: 3, MaxTimeouts: 9, MaxRequests: 8, MaxCrashes: &zero, MaxDirtyCrashes: 7, MaxBuffer: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := st.Budget
	if st.Config.Nodes != 3 || b.MaxTimeouts != 9 || b.MaxRequests != 8 || b.MaxCrashes != 0 || b.MaxDirtyCrashes != 7 || b.MaxBuffer != 6 {
		t.Errorf("overrides not applied: config %+v budget %+v", st.Config, b)
	}
	if n := len(st.SpecBugs); n != 1 {
		t.Errorf("-bug selects exactly one defect, got %d", n)
	}
	def, _ := sandtable.NewSession(sys, sandtable.Settings{})
	if def.Budget != sys.DefaultBudget || def.Config.Name != sys.DefaultConfig.Name {
		t.Errorf("zero settings must keep the system defaults")
	}
	if fixed, _ := sandtable.NewSession(sys, sandtable.Settings{Fixed: true}); len(fixed.SpecBugs) != 0 {
		t.Errorf("-fixed must select the empty defect set, got %v", fixed.SpecBugs)
	}
}

func TestRunCheck(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cfg        func(string) (string, sandtable.Settings)
		shrink     bool
		violation  bool
		stopReason string
	}{
		{"no violation", cleanRun, false, false, "exhausted"},
		{"violation", violating, false, true, "violation"},
		{"violation + shrink", violating, true, true, "violation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			system, set := tc.cfg("check")
			set.Shrink = tc.shrink
			reg := obs.NewRegistry()
			out, err := session(t, system, set).RunCheck(context.Background(), set, sandtable.Sinks{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Summary["stop_reason"]; got != tc.stopReason {
				t.Errorf("stop_reason = %v, want %s", got, tc.stopReason)
			}
			if (out.Violation != nil) != tc.violation || (out.Trace != nil) != tc.violation {
				t.Fatalf("violation %v, trace %v; want both %v", out.Violation, out.Trace, tc.violation)
			}
			if out.Cover == nil || out.Check == nil {
				t.Error("a check outcome carries the exploration result and its coverage")
			}
			_, shrunk := out.Summary["shrink_minimized_len"]
			if shrunk != tc.shrink || (out.Shrink != nil) != tc.shrink {
				t.Errorf("shrink keys present = %v, Shrink = %v; want %v", shrunk, out.Shrink, tc.shrink)
			}
			if tc.shrink && len(out.Trace.Steps) != out.Shrink.MinimizedLen {
				t.Errorf("trace has %d steps, want the minimized %d", len(out.Trace.Steps), out.Shrink.MinimizedLen)
			}
			if _, ok := out.Summary["warnings"]; ok || out.Warnings != nil {
				t.Errorf("a clean run carries no warnings: %v", out.Warnings)
			}
			m := out.Metrics(reg)
			if m["schema"] != obs.MetricsSchemaVersion || m["cover"] != out.Cover || m["result"] == nil {
				t.Errorf("metrics payload lacks schema/result/cover: %v", m)
			}
			if _, ok := m["phase.explore_ns"]; !ok {
				t.Error("the explore phase timer did not run")
			}
		})
	}
}

// TestDeadlineBoundsEveryOp: a 1ms deadline returns promptly on every op
// that searches, with a partial but well-formed summary. (At the parent
// commit simulate and conform ignored the deadline outright.)
func TestDeadlineBoundsEveryOp(t *testing.T) {
	for op, run := range searchOps {
		t.Run(op, func(t *testing.T) {
			system, set := bigRun(op)
			set.Deadline = time.Millisecond
			start := time.Now()
			out, err := run(session(t, system, set), context.Background(), set, sandtable.Sinks{})
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("took %s under a 1ms deadline", d)
			}
			switch op {
			case "check":
				if out.Summary["stop_reason"] != "deadline" {
					t.Errorf("stop_reason = %v, want deadline", out.Summary["stop_reason"])
				}
			case "simulate":
				wantKeys(t, out.Summary, "walks", "branch_coverage", "event_diversity", "max_depth", "mean_depth", "violations", "distinct_states")
			case "conform":
				wantKeys(t, out.Summary, "walks", "events_checked", "passed")
			}
			if w, ok := out.Summary["walks"].(int); ok && w >= set.Walks {
				t.Errorf("all %d walks ran despite the deadline", w)
			}
			if _, ok := out.Summary["stop_reason"]; ok && op != "check" {
				t.Errorf("a deadline is not a cancel: %v", out.Summary)
			}
		})
	}
}

// TestCancelMidRun cancels each op from its own first progress report, so
// the cancel is guaranteed to land mid-run.
func TestCancelMidRun(t *testing.T) {
	for op, run := range searchOps {
		t.Run(op, func(t *testing.T) {
			system, set := bigRun(op)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sinks := sandtable.Sinks{Progress: func(obs.Progress) { cancel() }, ProgressInterval: time.Millisecond}
			out, err := run(session(t, system, set), ctx, set, sinks)
			if err != nil {
				t.Fatal(err)
			}
			if out.Summary["stop_reason"] != "canceled" {
				t.Errorf("stop_reason = %v, want canceled", out.Summary["stop_reason"])
			}
		})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	st := session(t, "gosyncobj", sandtable.Settings{})
	if _, err := st.RunReplay(canceled, &trace.Trace{}, sandtable.Settings{}, sandtable.Sinks{}); !errors.Is(err, context.Canceled) {
		t.Errorf("replay under a canceled context: %v, want context.Canceled", err)
	}
}

func TestRunSimulate(t *testing.T) {
	set := sandtable.Defaults("simulate")
	set.Walks, set.Seed, set.Distinct = 200, 3, true
	st := session(t, "gosyncobj", set)
	plain, err := st.RunSimulate(context.Background(), set, sandtable.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sim.Walks != 200 || plain.Summary["walks"] != 200 || plain.Distinct == 0 || plain.Cover == nil {
		t.Errorf("simulate outcome: %+v", plain.Summary)
	}
	if plain.Violation == nil || plain.Trace == nil || plain.Shrink != nil {
		t.Fatalf("seed 3 finds a violating walk within 200 walks, unshrunk: violation %v shrink %v", plain.Violation, plain.Shrink)
	}

	set.Shrink = true
	shrunk, err := st.RunSimulate(context.Background(), set, sandtable.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := shrunk.Summary["shrink_original_len"].(int)
	minimized, _ := shrunk.Summary["shrink_minimized_len"].(int)
	if minimized == 0 || minimized >= orig || len(shrunk.Trace.Steps) != minimized {
		t.Errorf("shrink %d -> %d, trace %d steps; want a strict reduction carried by the trace", orig, minimized, len(shrunk.Trace.Steps))
	}
}

func TestRunConform(t *testing.T) {
	system, set := cleanRun("conform")
	set.Walks = 20
	reg := obs.NewRegistry()
	out, err := session(t, system, set).RunConform(context.Background(), set, sandtable.Sinks{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["passed"] != true || out.Summary["walks"] != 20 || out.Trace != nil || !out.Conform.Passed() {
		t.Errorf("fixed build must pass 20 walks: %v", out.Summary)
	}
	if _, ok := reg.Snapshot()["phase.conform_ns"]; !ok {
		t.Error("the conform phase timer did not run")
	}

	// CRaft#9 (a modeling-stage defect: the implementation reads the wrong
	// term) diverges from its specification within the first walk.
	set = sandtable.Defaults("conform")
	set.Bug, set.Walks, set.Shrink = "CRaft#9", 5, true
	out, err = session(t, "craft", set).RunConform(context.Background(), set, sandtable.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["passed"] != false || out.Summary["discrepancy"] == nil || out.Shrink == nil {
		t.Fatalf("want a shrunk discrepancy: %v", out.Summary)
	}
	if out.Shrink.MinimizedLen >= out.Shrink.OriginalLen || len(out.Trace.Steps) != out.Shrink.MinimizedLen {
		t.Errorf("divergence shrink %d -> %d, trace %d steps", out.Shrink.OriginalLen, out.Shrink.MinimizedLen, len(out.Trace.Steps))
	}
}

// TestFailedShrinkIsReported: when the discrepancy does not reproduce under
// the shrink oracle (here: the implementation refuses to boot a second
// time), the original trace is kept and the failure is a warning in the
// outcome and its summary — it used to vanish without a trace in a job.
func TestFailedShrinkIsReported(t *testing.T) {
	real, err := integrations.Get("craft")
	if err != nil {
		t.Fatal(err)
	}
	sys, boots := *real, 0
	sys.NewCluster = func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
		if boots++; boots > 1 {
			return nil, errors.New("no second boot")
		}
		return real.NewCluster(cfg, bugs, seed)
	}
	set := sandtable.Defaults("conform")
	set.Bug, set.Walks, set.Shrink = "CRaft#9", 5, true
	st, err := sandtable.NewSession(&sys, set)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.RunConform(context.Background(), set, sandtable.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warnings) != 1 || !strings.HasPrefix(out.Warnings[0], "shrink: ") {
		t.Fatalf("warnings = %q, want one shrink warning", out.Warnings)
	}
	if w, _ := out.Summary["warnings"].([]string); len(w) != 1 {
		t.Errorf("summary carries no warnings entry: %v", out.Summary)
	}
	if out.Shrink != nil || out.Trace != out.Conform.Discrepancy.Trace {
		t.Error("a failed shrink must keep the original trace")
	}
	if _, ok := out.Summary["shrink_minimized_len"]; ok {
		t.Error("a failed shrink must not report a reduction")
	}
}

func TestRunConfirm(t *testing.T) {
	t.Run("confirmed, then replayed from disk", func(t *testing.T) {
		system, set := violating("confirm")
		set.Shrink = true
		st := session(t, system, set)
		reg := obs.NewRegistry()
		out, err := st.RunConfirm(context.Background(), set, sandtable.Sinks{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if out.Summary["confirmed"] != true || out.Summary["replay_steps"] != len(out.Trace.Steps) || out.Shrink == nil {
			t.Errorf("confirm outcome: %v", out.Summary)
		}
		wantKeys(t, out.Summary, "distinct_states", "stop_reason", "shrink_attempts")
		if _, ok := reg.Snapshot()["phase.replay_ns"]; !ok {
			t.Error("the replay phase timer did not run")
		}

		path := filepath.Join(t.TempDir(), "trace.json")
		if err := sandtable.WriteTrace(path, out.Trace); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := trace.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := st.RunReplay(context.Background(), tr, set, sandtable.Sinks{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary["confirmed"] != true || rep.Summary["steps"] != out.Replay.Steps || rep.Cover != nil {
			t.Errorf("replay outcome: %v", rep.Summary)
		}
		if err := sandtable.WriteTrace(filepath.Join(t.TempDir(), "missing", "trace.json"), tr); err == nil {
			t.Error("writing into a missing directory must fail")
		}
	})
	// `confirm -system gosyncobj -bug GoSyncObj#2 -shrink`, the benchmark's
	// first workflow step. Trace reconstruction, every ddmin replay and the
	// scenario behind the confirmation step through a reused AppendNext
	// buffer; with successor slots recycled and one of those call sites
	// keeping its state in the buffer, this reported "no violation found to
	// confirm (224952 states)".
	t.Run("GoSyncObj#2 through recycled successor slots", func(t *testing.T) {
		set := sandtable.Defaults("confirm")
		set.Bug, set.Shrink = "GoSyncObj#2", true
		out, err := session(t, "gosyncobj", set).RunConfirm(context.Background(), set, sandtable.Sinks{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Summary["confirmed"] != true || out.Summary["replay_steps"] != 13 || len(out.Trace.Steps) != 13 {
			t.Errorf("confirm outcome: %v (trace of %d steps), want CONFIRMED over 13 events", out.Summary, len(out.Trace.Steps))
		}
	})
	t.Run("no violation", func(t *testing.T) {
		system, set := cleanRun("confirm")
		out, err := session(t, system, set).RunConfirm(context.Background(), set, sandtable.Sinks{})
		if err == nil || !strings.Contains(err.Error(), "no violation found to confirm") {
			t.Fatalf("err = %v, want no violation found to confirm", err)
		}
		if out == nil || out.Summary["stop_reason"] != "exhausted" {
			t.Errorf("the outcome must still carry the exploration: %+v", out)
		}
	})
	// At the parent commit the CLI's confirm ignored Result.Err and reported
	// "no violation found to confirm (0 states)" for a run that never ran.
	t.Run("failed run surfaces its error", func(t *testing.T) {
		system, set := cleanRun("confirm")
		set.Checkpoint, set.Resume = t.TempDir(), true // nothing to resume from
		out, err := session(t, system, set).RunConfirm(context.Background(), set, sandtable.Sinks{})
		if err == nil || strings.Contains(err.Error(), "no violation found") || !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want the resume failure", err)
		}
		if out == nil || out.Summary == nil {
			t.Error("a failed run still returns its partial outcome")
		}
	})
}
