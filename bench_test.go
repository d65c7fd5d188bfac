// Package sandtable_bench holds the go-test benchmarks of the paper's
// evaluation that have no other entry point: Table 3's exploration
// throughput, and the ablations of the design choices called out in
// DESIGN.md (symmetry reduction, stateful vs stateless search, BFS
// parallelism, constraint-ranking sort orders). The other tables and
// figures regenerate with `go run ./cmd/experiments -table N` / `-fig N`.
// BenchmarkConformance is the conformance layer's entry point: Part 2's
// implementation-against-specification check, alone.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package sandtable_bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/experiments"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

// BenchmarkTable3Exploration measures each system's bug-fixed exploration
// throughput over a capped prefix of its experiment-#1 space (the full
// exhaustive runs are `cmd/experiments -table 3`; capping keeps the whole
// benchmark suite inside the default go-test timeout). Each system runs at
// three worker counts — 1, 4, and NumCPU ("max") — so the rows show both
// single-worker probe-table speed and the scaling of the concurrent
// probe-and-insert fingerprint set. The coverage profiler
// (Options.Cover) stays on, matching how `sandtable check` runs and gating
// the profiler's hot-path overhead.
func BenchmarkTable3Exploration(b *testing.B) {
	cfg := spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
	workerRuns := []struct {
		label   string
		workers int
	}{
		{"w1", 1},
		{"w4", 4},
		{"wmax", runtime.NumCPU()},
	}
	for _, name := range experiments.Systems {
		name := name
		b.Run(name, func(b *testing.B) {
			sys, err := integrations.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, wr := range workerRuns {
				wr := wr
				b.Run(wr.label, func(b *testing.B) {
					var perSec, eventsPerSec float64
					for i := 0; i < b.N; i++ {
						st := sandtable.New(sys, cfg, experiments.Exp1Budget(name), bugdb.NoBugs())
						res := st.Check(explorer.Options{
							Symmetry: true, StopAtFirstViolation: true,
							MaxStates: 120_000, Workers: wr.workers, Cover: true,
						})
						if v := res.FirstViolation(); v != nil {
							b.Fatalf("bug-fixed spec violated %s: %v", v.Invariant, v.Err)
						}
						perSec = res.StatesPerSecond()
						eventsPerSec = float64(res.Transitions) / res.Duration.Seconds()
					}
					b.ReportMetric(perSec, "states/s")
					b.ReportMetric(eventsPerSec, "events/s")
					b.ReportMetric(float64(wr.workers), "workers")
					// GOMAXPROCS makes the workers column interpretable: on a
					// 1-CPU machine wmax legitimately records workers=1, and
					// only this field distinguishes that from a parse bug.
					b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				})
			}
		})
	}
}

// BenchmarkAblationSymmetry measures the distinct-state reduction from
// symmetry (DESIGN.md ablation #2).
func BenchmarkAblationSymmetry(b *testing.B) {
	sys, err := integrations.Get("gosyncobj")
	if err != nil {
		b.Fatal(err)
	}
	budget := spec.Budget{Name: "sym", MaxTimeouts: 2, MaxRequests: 1, MaxPartitions: 1, MaxBuffer: 2}
	cfg := spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
	for _, sym := range []bool{false, true} {
		name := "off"
		if sym {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				st := sandtable.New(sys, cfg, budget, bugdb.NoBugs())
				res := st.Check(explorer.Options{Symmetry: sym, StopAtFirstViolation: true})
				if !res.Exhausted {
					b.Fatalf("space not exhausted: %s", res.StopReason)
				}
				states = res.DistinctStates
			}
			b.ReportMetric(float64(states), "distinct-states")
		})
	}
}

// BenchmarkAblationStateless compares the stateful fingerprint-set BFS with
// the stateless (no-dedup) search discipline on the same bounded model
// (DESIGN.md ablation #1 — the paper's core premise).
func BenchmarkAblationStateless(b *testing.B) {
	m := &toy.LostUpdate{N: 4}
	b.Run("stateful", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			res := explorer.NewChecker(m, explorer.Options{Symmetry: false}).Run()
			states = res.DistinctStates
		}
		b.ReportMetric(float64(states), "visits")
	})
	b.Run("stateless", func(b *testing.B) {
		var visits int64
		for i := 0; i < b.N; i++ {
			res := explorer.StatelessSearch(m, explorer.StatelessOptions{})
			visits = res.Visits
		}
		b.ReportMetric(float64(visits), "visits")
	})
}

// BenchmarkAblationWorkers sweeps the BFS worker count (DESIGN.md #4).
func BenchmarkAblationWorkers(b *testing.B) {
	sys, err := integrations.Get("craft")
	if err != nil {
		b.Fatal(err)
	}
	budget := spec.Budget{Name: "w", MaxTimeouts: 2, MaxRequests: 1, MaxDrops: 1, MaxBuffer: 2, MaxCompactions: 1}
	cfg := spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("%dworkers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := sandtable.New(sys, cfg, budget, bugdb.NoBugs())
				res := st.Check(explorer.Options{Symmetry: true, Workers: workers, StopAtFirstViolation: true})
				if !res.Exhausted {
					b.Fatalf("not exhausted: %s", res.StopReason)
				}
			}
		})
	}
}

// BenchmarkAblationRanking compares the built-in constraint-ranking sort
// order with the depth-first alternative (DESIGN.md #3).
func BenchmarkAblationRanking(b *testing.B) {
	sys, err := integrations.Get("gosyncobj")
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []spec.Config{{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}}}
	budgets := []spec.Budget{
		{Name: "light", MaxTimeouts: 3, MaxRequests: 1, MaxBuffer: 3},
		{Name: "hunt", MaxTimeouts: 5, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3},
		{Name: "wide", MaxTimeouts: 8, MaxCrashes: 2, MaxRestarts: 2, MaxRequests: 3, MaxPartitions: 2, MaxBuffer: 5},
	}
	for _, order := range []struct {
		name string
		less ranking.Less
	}{{"coverage-first", ranking.BranchCoverageFirst}, {"depth-first", ranking.DepthFirst}} {
		order := order
		b.Run(order.name, func(b *testing.B) {
			st := sandtable.New(sys, cfgs[0], budgets[1], bugdb.VerificationBugs("gosyncobj"))
			for i := 0; i < b.N; i++ {
				r := st.Rank(cfgs, budgets, ranking.Options{WalksPerPair: 16, Seed: 1, Less: order.less})
				if len(r.Top("n2w2", 1)) != 1 {
					b.Fatal("no ranking produced")
				}
			}
		})
	}
}

// BenchmarkConformance measures one conformance round, the session `sandtable
// conform -system gosyncobj -fixed -walks 1000 -depth 30` runs, on one
// worker: every walk steps the specification and the implementation in lock
// step and compares the two after each event. It reports the events checked
// per second and the heap allocations per event, the conformance layer's
// throughput and its allocation discipline.
func BenchmarkConformance(b *testing.B) {
	sys, err := integrations.Get("gosyncobj")
	if err != nil {
		b.Fatal(err)
	}
	st := sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugdb.NoBugs())
	var events int
	var elapsed time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, err := st.Conform(conformance.Options{Walks: 1000, WalkDepth: 30, Seed: 1, Workers: 1})
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("the fixed build diverged: %v", rep.Discrepancy)
		}
		events += rep.EventsChecked
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(events)/elapsed.Seconds(), "events/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}
