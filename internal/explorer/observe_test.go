package explorer

import (
	"bytes"
	"strconv"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
)

// TestBFSRecordsDedupAndQueueHighWater checks the new Result
// instrumentation: dedup hits plus distinct states must account for every
// generated transition, and the frontier high-water mark must be positive
// and at least the final level's size.
func TestBFSRecordsDedupAndQueueHighWater(t *testing.T) {
	res := NewChecker(newToy(4, true), Options{}).Run()
	if !res.Exhausted {
		t.Fatalf("space not exhausted: %s", res.StopReason)
	}
	if res.DedupHits == 0 {
		t.Fatal("expected dedup hits in a converging state graph")
	}
	// Every generated successor is either newly discovered or a dedup hit
	// (init states are discovered outside the transition count).
	inits := len(newToy(4, true).Init())
	if res.DedupHits+int64(res.DistinctStates-inits) != res.Transitions {
		t.Fatalf("dedup accounting: %d hits + %d new != %d transitions",
			res.DedupHits, res.DistinctStates-inits, res.Transitions)
	}
	if res.MaxQueueLen <= 0 || res.MaxQueueLen > res.DistinctStates {
		t.Fatalf("implausible MaxQueueLen %d (distinct %d)", res.MaxQueueLen, res.DistinctStates)
	}
	if res.DedupRatio() <= 0 || res.DedupRatio() >= 1 {
		t.Fatalf("dedup ratio %v out of range", res.DedupRatio())
	}
}

// TestBFSProgressAndMetrics runs with a progress callback and a registry:
// the final report must carry the run's totals, and the registry must
// expose the acceptance-criteria keys.
func TestBFSProgressAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var reports []obs.Progress
	opts := Options{
		Progress: func(p obs.Progress) { reports = append(reports, p) },
		Metrics:  reg,
	}
	res := NewChecker(newToy(4, false), opts).Run()

	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	final := reports[len(reports)-1]
	if !final.Final {
		t.Fatal("last report not marked final")
	}
	if final.DistinctStates != res.DistinctStates || final.Transitions != res.Transitions || final.DedupHits != res.DedupHits {
		t.Fatalf("final report %+v disagrees with result %+v", final, res)
	}

	snap := reg.Snapshot()
	for _, key := range []string{"distinct_states", "transitions", "dedup_hits", "max_queue_len", "queue_len", "depth"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("registry snapshot missing %q: %v", key, snap)
		}
	}
	if snap["distinct_states"].(int64) != int64(res.DistinctStates) {
		t.Fatalf("distinct_states = %v, want %d", snap["distinct_states"], res.DistinctStates)
	}
	if snap["max_queue_len"].(int64) != int64(res.MaxQueueLen) {
		t.Fatalf("max_queue_len = %v, want %d", snap["max_queue_len"], res.MaxQueueLen)
	}
}

// TestBFSTracerEmitsLevels checks the spec-level JSONL trace: one "level"
// event per explored depth, with a distinct-state count that matches the
// final result.
func TestBFSTracerEmitsLevels(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res := NewChecker(newToy(3, true), Options{Tracer: tr}).Run()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no level events")
	}
	last := evs[len(evs)-1]
	if last.Layer != "spec" || last.Kind != "level" {
		t.Fatalf("unexpected event: %+v", last)
	}
	if got, _ := strconv.Atoi(last.Detail["distinct"]); got != res.DistinctStates {
		t.Fatalf("last level distinct = %s, want %d", last.Detail["distinct"], res.DistinctStates)
	}
}

// TestWalksProgressAndMetrics drives simulation mode with a progress
// callback and a registry.
func TestWalksProgressAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	var reports []obs.Progress
	sim := NewSimulator(newToy(3, false), SimOptions{
		Seed:     1,
		Progress: func(p obs.Progress) { reports = append(reports, p) },
		Metrics:  reg,
		Tracer:   tr,
	})
	walks := sim.Walks(10)
	if len(walks) != 10 {
		t.Fatalf("walks = %d", len(walks))
	}
	if len(reports) == 0 || !reports[len(reports)-1].Final {
		t.Fatal("walk progress missing or unterminated")
	}
	snap := reg.Snapshot()
	if snap["walks"].(int64) != 10 {
		t.Fatalf("walks counter = %v", snap["walks"])
	}
	if snap["walk_steps"].(int64) <= 0 {
		t.Fatalf("walk_steps = %v", snap["walk_steps"])
	}
	if snap["walk_depth.count"].(int64) != 10 {
		t.Fatalf("walk_depth histogram count = %v", snap["walk_depth.count"])
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 {
		t.Fatalf("walk events = %d, want 10", len(evs))
	}
}
