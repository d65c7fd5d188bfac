package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWorkerCoverMergeAtBarrier drives the two-phase collection protocol:
// workers accumulate privately, the merge folds deltas into the run profile
// and resets the workers, and repeated merge rounds keep totals exact.
func TestWorkerCoverMergeAtBarrier(t *testing.T) {
	cover := NewCover("bfs", []string{"A", "B", "C"})
	w1, w2 := NewWorkerCover(), NewWorkerCover()

	// Block 1: A fires on both workers, B only on w2.
	w1.Observe("A", 1, true)
	w1.Observe("A", 1, false)
	w2.Observe("A", 2, true)
	w2.Observe("B", 2, false)
	w2.SymmetryHit()
	cover.MergeWorker(w1)
	cover.MergeWorker(w2)

	// Block 2: the reset workers accumulate again.
	w1.Observe("A", 3, false)
	w1.Observe("B", 3, true)
	cover.MergeWorker(w1)
	cover.MergeWorker(w2) // nothing new on w2: merge must be a no-op

	a := cover.Actions["A"]
	if a.Fired != 4 || a.Fresh != 2 || a.FirstDepth != 1 {
		t.Fatalf("A = %+v, want fired 4 fresh 2 first-depth 1", a)
	}
	if a.LastFreshDepth != 2 {
		t.Fatalf("A last fresh depth = %d, want 2", a.LastFreshDepth)
	}
	b := cover.Actions["B"]
	if b.Fired != 2 || b.Fresh != 1 || b.FirstDepth != 2 || b.LastFreshDepth != 3 {
		t.Fatalf("B = %+v", b)
	}
	if cover.SymmetryHits != 1 {
		t.Fatalf("symmetry hits = %d, want 1", cover.SymmetryHits)
	}
	if got := cover.NeverFired(); !reflect.DeepEqual(got, []string{"C"}) {
		t.Fatalf("never-fired = %v, want [C]", got)
	}
	if got := cover.TotalFired(); got != 6 {
		t.Fatalf("total fired = %d, want 6", got)
	}
	if got := cover.ActionNames(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("action names = %v", got)
	}
}

// TestCoverZeroYieldAndYield checks the saturation flags: an action whose
// every successor was a duplicate is zero-yield, and Yield reports the
// fresh fraction.
func TestCoverZeroYieldAndYield(t *testing.T) {
	cover := NewCover("bfs", nil)
	cover.Observe("Hot", 1, true)
	cover.Observe("Hot", 1, true)
	cover.Observe("Hot", 2, false)
	cover.Observe("Saturated", 1, false)
	cover.Observe("Saturated", 2, false)

	if cover.NeverFired() != nil {
		t.Fatalf("never-fired without a declared vocabulary should be nil")
	}
	hot := cover.Actions["Hot"]
	if y := hot.Yield(); y < 0.66 || y > 0.67 {
		t.Fatalf("Hot yield = %v, want 2/3", y)
	}
	if cover.Actions["Saturated"].Yield() != 0 {
		t.Fatal("Saturated yield should be 0")
	}
}

// TestCoverJSONRoundTrip: the profile embedded in -metrics-out must decode
// back identically — `sandtable report` reads it from the artifact.
func TestCoverJSONRoundTrip(t *testing.T) {
	cover := NewCover("bfs", []string{"A", "B"})
	cover.Observe("A", 0, true)
	cover.Levels = append(cover.Levels, LevelStats{Depth: 0, Frontier: 1, Fresh: 1, Transitions: 3, Dedup: 2, FpsetProbes: 5})
	cover.SymmetryHits = 7

	buf, err := json.Marshal(cover)
	if err != nil {
		t.Fatal(err)
	}
	var back Cover
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != MetricsSchemaVersion {
		t.Fatalf("schema = %d, want %d", back.Schema, MetricsSchemaVersion)
	}
	if !reflect.DeepEqual(back.Actions["A"], cover.Actions["A"]) || !reflect.DeepEqual(back.Levels, cover.Levels) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, cover)
	}
	if !reflect.DeepEqual(back.NeverFired(), []string{"B"}) {
		t.Fatalf("never-fired after round trip = %v", back.NeverFired())
	}
	if back.SymmetryHits != 7 {
		t.Fatalf("symmetry hits = %d", back.SymmetryHits)
	}
	if lv := back.Levels[0]; lv.DedupRatio() < 0.66 || lv.DedupRatio() > 0.67 {
		t.Fatalf("level dedup ratio = %v", lv.DedupRatio())
	}
}

// TestCoverNilSafety: nil profiles and nil worker accumulators must accept
// every call, so instrumented paths need no conditionals.
func TestCoverNilSafety(t *testing.T) {
	var c *Cover
	c.Observe("A", 0, true)
	c.MergeWorker(NewWorkerCover())
	if c.NeverFired() != nil || c.ActionNames() != nil || c.TotalFired() != 0 {
		t.Fatal("nil cover not a no-op")
	}
	var w *WorkerCover
	w.Observe("A", 0, true)
	w.SymmetryHit()
	NewCover("bfs", nil).MergeWorker(w)
}
