// Zab election: ZabKeeper#1 — the ZOOKEEPER-1419 analogue. The fast leader
// election vote comparator loses antisymmetry once vote zxids cross epochs
// ("votes are not total ordered"), so two LOOKING servers can supersede
// each other forever and the election never settles.
//
// Run: go run ./examples/zabelection
package main

import (
	"fmt"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
)

func main() {
	sys, err := integrations.Get("zabkeeper")
	if err != nil {
		panic(err)
	}
	// Two election timeouts give two leadership epochs; three requests
	// build histories whose last zxids cross epochs — (1,2) vs (2,1) —
	// which the buggy comparator orders in both directions.
	cfg := spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}}
	budget := spec.Budget{
		Name: "zab", MaxTimeouts: 2, MaxRequests: 3, MaxBuffer: 3,
	}
	st := sandtable.New(sys, cfg, budget, bugdb.NoBugs().With(bugdb.ZabVoteOrder))

	fmt.Println("== hunting the vote total-order violation ==")
	opts := explorer.DefaultOptions()
	opts.Deadline = 3 * time.Minute
	res := st.Check(opts)
	v := res.FirstViolation()
	if v == nil {
		panic("vote-order violation not found")
	}
	fmt.Printf("%s at depth %d (%d states, %s):\n  %v\n\n",
		v.Invariant, v.Depth, res.DistinctStates, res.Duration.Round(time.Millisecond), v.Err)
	fmt.Println("the optimal trace crosses election, discovery/sync and broadcast phases:")
	fmt.Println(v.Trace.Format(false))

	fmt.Println("== confirming at the implementation level ==")
	conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
	if err != nil {
		panic(err)
	}
	if !conf.Confirmed {
		panic("replay diverged: " + conf.Divergence.Describe())
	}
	fmt.Printf("confirmed: %d events replayed deterministically, every step conforming\n", conf.Steps)
}
