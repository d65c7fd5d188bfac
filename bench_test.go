// Package sandtable_bench holds the benchmark harness that regenerates the
// paper's evaluation: one benchmark per table and figure (§5), plus
// ablation benchmarks for the design choices called out in DESIGN.md
// (symmetry reduction, stateful vs stateless search, BFS parallelism,
// constraint-ranking sort orders).
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
	"github.com/sandtable-go/sandtable/internal/experiments"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Deadline = 90 * time.Second
	o.ExplorationBudget = 3 * time.Second
	o.SpecTraces = 400
	o.ImplTraces = 40
	o.ConformanceWalks = 1500
	return o
}

// BenchmarkTable1Inventory regenerates the integration inventory.
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("expected 8 systems, got %d", len(rows))
		}
	}
}

// BenchmarkTable2Bugs hunts a representative fast subset of the Table 2
// verification bugs (one per system family) and reports states-to-bug;
// cmd/experiments regenerates the full table.
func BenchmarkTable2Bugs(b *testing.B) {
	for _, id := range []string{"GoSyncObj#2", "CRaft#4", "DaosRaft#1", "AsyncRaft#2"} {
		id := id
		b.Run(id, func(b *testing.B) {
			info, _ := bugdb.ByID(id)
			d := experiments.Detections[id]
			sys, err := integrations.Get(info.System)
			if err != nil {
				b.Fatal(err)
			}
			var states int
			for i := 0; i < b.N; i++ {
				st := sandtable.New(sys, d.Config, d.Budget, d.Bugs)
				opts := explorer.DefaultOptions()
				opts.Deadline = 90 * time.Second
				res := st.Check(opts)
				if res.FirstViolation() == nil {
					b.Fatalf("%s not found", id)
				}
				states = res.DistinctStates
			}
			b.ReportMetric(float64(states), "states-to-bug")
		})
	}
}

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

// BenchmarkTable4Speedup measures per-trace exploration at both levels and
// reports the spec-vs-impl speedup under the paper-calibrated cost model.
func BenchmarkTable4Speedup(b *testing.B) {
	for _, name := range experiments.Systems {
		name := name
		b.Run(name, func(b *testing.B) {
			sys, err := integrations.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			bugs := bugdb.VerificationBugs(name)
			cfg := spec.Config{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}}
			st := sandtable.New(sys, cfg, sys.DefaultBudget, bugs)
			sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{Seed: 1})

			var specNs, implSimNs float64
			for i := 0; i < b.N; i++ {
				start := time.Now()
				w := sim.Walk(int64(i))
				specNs = float64(time.Since(start).Nanoseconds())

				cluster, err := sys.NewCluster(cfg, bugs, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := replay.Run(w.Trace, cluster, replay.Options{}); err != nil {
					b.Fatal(err)
				}
				implSimNs = float64(cluster.SimulatedCost().Nanoseconds())
			}
			if specNs > 0 {
				b.ReportMetric(implSimNs/specNs, "speedup")
			}
		})
	}
}

// BenchmarkFigure6 regenerates the GoSyncObj#4 counterexample behind the
// paper's Figure 6 timing diagram.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the CRaft#1+#2 data-inconsistency scenario
// behind the paper's Figure 7.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchOptions()); err != nil {
			b.Fatal(err)
		}
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
