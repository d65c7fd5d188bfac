// Raft bug hunt: the full SandTable workflow on GoSyncObj#4 (the paper's
// Figure 6 bug — a non-monotonic match index in the PySyncObj analogue).
//
//  1. specification-level model checking finds the safety violation;
//  2. the counterexample renders as a Figure-6-style space-time diagram;
//  3. deterministic replay confirms the bug at the implementation level;
//  4. fix validation re-runs conformance and model checking on the fixed
//     build.
//
// Run: go run ./examples/raftbughunt
package main

import (
	"fmt"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
)

func main() {
	sys, err := integrations.Get("gosyncobj")
	if err != nil {
		panic(err)
	}
	cfg := spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}}
	budget := spec.Budget{
		Name: "hunt", MaxTimeouts: 5, MaxCrashes: 1, MaxRestarts: 1,
		MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3,
	}
	st := sandtable.New(sys, cfg, budget, bugdb.NoBugs().With(bugdb.GSOMatchNonMonotonic))

	fmt.Println("== 1. specification-level model checking ==")
	opts := explorer.DefaultOptions()
	opts.Deadline = 2 * time.Minute
	res := st.Check(opts)
	v := res.FirstViolation()
	if v == nil {
		panic("bug not found")
	}
	fmt.Printf("%s after %d distinct states (%s): %v\n\n",
		v.Invariant, res.DistinctStates, res.Duration.Round(time.Millisecond), v.Err)

	fmt.Println("== 2. the counterexample as a space-time diagram (cf. Figure 6) ==")
	fmt.Println(v.Trace.Diagram(cfg.Nodes, nil))

	fmt.Println("== 3. confirming at the implementation level ==")
	conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
	if err != nil {
		panic(err)
	}
	if !conf.Confirmed {
		panic("replay diverged: " + conf.Divergence.Describe())
	}
	fmt.Printf("confirmed: %d events replayed deterministically, every step conforming\n\n", conf.Steps)

	fmt.Println("== 4. validating the fix ==")
	rep, err := st.ValidateFix(
		[]bugdb.Key{bugdb.GSOMatchNonMonotonic},
		conformance.Options{Walks: 100, WalkDepth: 25, Seed: 7},
		opts,
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("conformance passed=%v, model checking clean=%v (explored %d states, %s)\n",
		rep.Conformance.Passed(), len(rep.Check.Violations) == 0, rep.Check.DistinctStates, rep.Check.StopReason)
}
