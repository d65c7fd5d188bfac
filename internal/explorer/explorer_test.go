package explorer

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/trace"
)

func newToy(n int, atomic bool) spec.Machine { return &toy.LostUpdate{N: n, Atomic: atomic} }

func TestBFSFindsLostUpdateAtMinimalDepth(t *testing.T) {
	c := NewChecker(newToy(2, false), Options{StopAtFirstViolation: true, RecordVars: true})
	res := c.Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("expected a violation, got none (%+v)", res)
	}
	// Minimal counterexample: Read(0), Read(1), Write(0), Write(1).
	if v.Depth != 4 {
		t.Errorf("violation depth = %d, want 4", v.Depth)
	}
	if v.Invariant != "NoLostUpdate" {
		t.Errorf("invariant = %q, want NoLostUpdate", v.Invariant)
	}
	if v.Trace == nil {
		t.Fatalf("violation has no reconstructed trace")
	}
	if got := v.Trace.Depth(); got != 4 {
		t.Errorf("trace depth = %d, want 4", got)
	}
	// The trace must be a real execution: 2 reads then 2 writes in some
	// interleaving where both reads precede at least one overlapping write.
	reads, writes := 0, 0
	for _, e := range v.Trace.Events() {
		switch e.Action {
		case "Read":
			reads++
		case "Write":
			writes++
		default:
			t.Errorf("unexpected action %q", e.Action)
		}
	}
	if reads != 2 || writes != 2 {
		t.Errorf("trace has %d reads, %d writes; want 2 and 2", reads, writes)
	}
}

func TestBFSAtomicModelHasNoViolation(t *testing.T) {
	res := NewChecker(newToy(3, true), Options{StopAtFirstViolation: true}).Run()
	if v := res.FirstViolation(); v != nil {
		t.Fatalf("atomic model should satisfy the invariant, got %v", v)
	}
	if !res.Exhausted {
		t.Errorf("small space should be exhausted, stop reason %q", res.StopReason)
	}
}

// resultSignature renders every externally observable field of a Result —
// counters, stop metadata, and each violation with its reconstructed trace —
// so two runs can be compared for exact equality.
func resultSignature(t *testing.T, res *Result) string {
	t.Helper()
	sig := fmt.Sprintf("distinct=%d transitions=%d dedup=%d maxqueue=%d maxdepth=%d stop=%q exhausted=%v violations=%d\n",
		res.DistinctStates, res.Transitions, res.DedupHits, res.MaxQueueLen,
		res.MaxDepth, res.StopReason, res.Exhausted, len(res.Violations))
	for _, v := range res.Violations {
		sig += v.String() + "\n"
		if v.Trace != nil {
			sig += v.Trace.Format(true) + "\n"
		}
	}
	return sig
}

// TestBFSExhaustsAndIsDeterministic asserts the checker's central contract:
// byte-identical results regardless of worker count — not just the distinct
// state count, but every counter, the stop reason, and every reconstructed
// counterexample. Three stop regimes are crossed with Workers ∈ {1,2,4,8}:
// exhaustive search (violations recorded, exploration continues),
// stop-at-first-violation, and a MaxStates bound that lands mid-level (the
// N=7 space has >16k-state frontiers, so the bound trips at an interior
// block boundary and the partial-level stop path must also be scheduling-
// independent).
func TestBFSExhaustsAndIsDeterministic(t *testing.T) {
	scenarios := []struct {
		name string
		mk   func() spec.Machine
		opts Options
	}{
		{"exhaustive", func() spec.Machine { return newToy(3, false) }, Options{RecordVars: true}},
		{"stop-at-first-violation", func() spec.Machine { return newToy(3, false) },
			Options{StopAtFirstViolation: true, RecordVars: true}},
		{"max-states-mid-level", func() spec.Machine { return newToy(7, false) },
			Options{MaxStates: 40_000}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var base string
			for _, workers := range []int{1, 2, 4, 8} {
				opts := sc.opts
				opts.Workers = workers
				res := NewChecker(sc.mk(), opts).Run()
				if res.DistinctStates == 0 {
					t.Fatal("no states explored")
				}
				sig := resultSignature(t, res)
				if base == "" {
					base = sig
					continue
				}
				if sig != base {
					t.Errorf("workers=%d diverged from workers=1:\n--- w1 ---\n%s--- w%d ---\n%s",
						workers, base, workers, sig)
				}
			}
		})
	}
}

func TestSymmetryReducesStateCount(t *testing.T) {
	plain := NewChecker(newToy(3, true), Options{Symmetry: false}).Run()
	sym := NewChecker(newToy(3, true), Options{Symmetry: true}).Run()
	if sym.DistinctStates >= plain.DistinctStates {
		t.Errorf("symmetry did not reduce states: sym=%d plain=%d", sym.DistinctStates, plain.DistinctStates)
	}
	if !sym.Exhausted || !plain.Exhausted {
		t.Errorf("both runs should exhaust the space")
	}
}

// TestSymmetryRefusedPastPermTableMax: a permutation table holds n! entries,
// so symmetry over 9 nodes stops with config-error before building one.
func TestSymmetryRefusedPastPermTableMax(t *testing.T) {
	res := NewChecker(newToy(spec.PermTableMax+1, false), Options{Symmetry: true}).Run()
	if res.StopReason != "config-error" || res.Err == nil || !strings.Contains(res.Err.Error(), "at most 8") || res.DistinctStates != 0 {
		t.Fatalf("stop=%s err=%v after %d states, want config-error naming the limit", res.StopReason, res.Err, res.DistinctStates)
	}
}

func TestSymmetryPreservesViolationDetection(t *testing.T) {
	res := NewChecker(newToy(3, false), DefaultOptions()).Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatal("symmetric search missed the violation")
	}
	if v.Trace == nil || v.Trace.Depth() != v.Depth {
		t.Fatalf("reconstructed trace depth mismatch: trace=%v depth=%d", v.Trace, v.Depth)
	}
}

func TestMaxStatesAndDeadlineStops(t *testing.T) {
	res := NewChecker(newToy(4, false), Options{MaxStates: 10}).Run()
	if res.StopReason != "max-states" && res.StopReason != "violation" {
		t.Errorf("stop reason = %q, want max-states", res.StopReason)
	}
	res = NewChecker(newToy(4, false), Options{Deadline: time.Nanosecond}).Run()
	if res.StopReason == "" {
		t.Error("missing stop reason under deadline")
	}
	// Where a single-process -max-states run stops is part of the contract
	// (the benchmark's -compare treats a moved count as fatal): the bound is
	// checked at block boundaries, so the run overshoots to the end of the
	// block, identically at every worker count. Values are the parent
	// commit's (f28e4c3).
	for _, w := range []int{1, 2, 4} {
		res := NewChecker(eqMachine(), Options{Workers: w, MaxStates: 500}).Run()
		if res.StopReason != "max-states" || res.DistinctStates != 671 || res.Transitions != 1156 || res.MaxDepth != 9 {
			t.Errorf("w=%d: stop=%s distinct=%d transitions=%d maxdepth=%d, want max-states 671 1156 9",
				w, res.StopReason, res.DistinctStates, res.Transitions, res.MaxDepth)
		}
	}
}

func TestMaxDepthBoundsSearch(t *testing.T) {
	res := NewChecker(newToy(2, false), Options{MaxDepth: 2}).Run()
	if res.MaxDepth > 2 {
		t.Errorf("search exceeded depth bound: %d", res.MaxDepth)
	}
	if res.StopReason != "max-depth" {
		t.Errorf("stop reason = %q, want max-depth", res.StopReason)
	}
}

func TestSimulationWalksAreSeededAndReproducible(t *testing.T) {
	sim := NewSimulator(newToy(3, false), SimOptions{Seed: 42, CheckInvariants: true})
	w1 := sim.Walk(42)
	w2 := sim.Walk(42)
	if w1.Stats.Depth != w2.Stats.Depth {
		t.Errorf("same seed produced different depths: %d vs %d", w1.Stats.Depth, w2.Stats.Depth)
	}
	e1, e2 := w1.Trace.Events(), w2.Trace.Events()
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].String() != e2[i].String() {
			t.Errorf("step %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// TestSimulationWalkReplays: the fingerprints a walk records are those of a
// replay of its own trace through the allocating Next. A walk steps through
// one reused AppendNext buffer, whose slack the machine recycles; a walk that
// left its current state in the buffer would have it overwritten by the next
// enumeration and record fingerprints of states it never visited.
func TestSimulationWalkReplays(t *testing.T) {
	for _, m := range []spec.Machine{newToy(4, false), eqMachine(), zabMachine()} {
		w := NewSimulator(m, SimOptions{MaxDepth: 40}).Walk(7)
		if len(w.Trace.Steps) < 5 {
			t.Fatalf("%s: walk of %d steps proves nothing", m.Name(), len(w.Trace.Steps))
		}
		cur := m.Init()[0]
		for i, step := range w.Trace.Steps {
			succs := m.Next(cur)
			k := slices.IndexFunc(succs, func(su spec.Succ) bool { return su.Event.Matches(step.Event) })
			if k < 0 {
				t.Fatalf("%s: step %d (%s) is not enabled in a replay", m.Name(), i, step.Event)
			}
			cur = succs[k].State
			if got := cur.Fingerprint(); got != step.Fingerprint {
				t.Fatalf("%s: step %d recorded fingerprint %#x, replay reaches %#x", m.Name(), i, step.Fingerprint, got)
			}
		}
	}
}

func TestSimulationTerminalReasons(t *testing.T) {
	sim := NewSimulator(newToy(2, true), SimOptions{})
	w := sim.Walk(1)
	if w.Stats.Terminal != "deadlock" {
		t.Errorf("terminal = %q, want deadlock (all processes finish)", w.Stats.Terminal)
	}
	if w.Stats.Depth != 2 {
		t.Errorf("atomic 2-process walk depth = %d, want 2", w.Stats.Depth)
	}

	sim = NewSimulator(newToy(3, false), SimOptions{MaxDepth: 1})
	w = sim.Walk(1)
	if w.Stats.Terminal != "max-depth" || w.Stats.Depth != 1 {
		t.Errorf("bounded walk: terminal=%q depth=%d", w.Stats.Terminal, w.Stats.Depth)
	}
}

func TestAggregateStats(t *testing.T) {
	sim := NewSimulator(newToy(3, false), SimOptions{Seed: 7, CheckInvariants: true})
	walks := sim.Walks(50)
	agg := Aggregate(walks)
	if agg.Walks != 50 {
		t.Errorf("walks = %d", agg.Walks)
	}
	if agg.BranchCoverage != 2 { // Read and Write
		t.Errorf("branch coverage = %d, want 2", agg.BranchCoverage)
	}
	if agg.MaxDepth != 6 { // 3 processes * 2 steps
		t.Errorf("max depth = %d, want 6", agg.MaxDepth)
	}
	if agg.Violations == 0 {
		t.Error("random walks over the racy model should hit violations")
	}
}

func TestStatelessSearchCountsRedundantWork(t *testing.T) {
	m := newToy(3, false)
	stateful := NewChecker(m, Options{Symmetry: false}).Run()
	stateless := StatelessSearch(m, StatelessOptions{})
	if !stateless.Exhausted {
		t.Fatalf("stateless search should exhaust the toy space")
	}
	if stateless.Visits <= int64(stateful.DistinctStates) {
		t.Errorf("stateless visits (%d) should exceed distinct states (%d)",
			stateless.Visits, stateful.DistinctStates)
	}
	if stateless.Violations == 0 {
		t.Error("stateless search missed the violation")
	}
	if f := stateless.RedundancyFactor(stateful.DistinctStates); f <= 1 {
		t.Errorf("redundancy factor = %v, want > 1", f)
	}
}

func TestViolationTraceVarsRecorded(t *testing.T) {
	res := NewChecker(newToy(2, false), Options{RecordVars: true, StopAtFirstViolation: true}).Run()
	v := res.FirstViolation()
	if v == nil || v.Trace == nil {
		t.Fatal("no violation trace")
	}
	if v.Trace.Init == nil {
		t.Error("trace init vars missing")
	}
	last := v.Trace.Steps[len(v.Trace.Steps)-1]
	if last.Vars["mem"] != "1" {
		t.Errorf("final mem = %q, want 1 (the lost update)", last.Vars["mem"])
	}
}

func TestTraceEventStringAndFormat(t *testing.T) {
	res := NewChecker(newToy(2, false), DefaultOptions()).Run()
	v := res.FirstViolation()
	if v == nil {
		t.Fatal("no violation")
	}
	s := v.Trace.Format(true)
	if s == "" {
		t.Fatal("empty trace format")
	}
	var ev trace.Event
	ev = v.Trace.Events()[0]
	if ev.String() == "" {
		t.Error("empty event string")
	}
}
