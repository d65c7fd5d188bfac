// KV linearizability: XraftKV#1 — the key-value store on the xraft core
// serves reads from the leader's local state without confirming leadership,
// so a deposed leader returns stale data after a partition.
//
// Model checking finds the violating schedule; deterministic replay
// confirms the stale read in the implementation; the ReadIndex fix
// validates clean.
//
// Run: go run ./examples/kvlinearizability
package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/histories"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

func main() {
	sys, err := integrations.Get("xraftkv")
	if err != nil {
		panic(err)
	}
	// The configuration and budget the §3.3 ranking heuristics select for
	// this defect: one workload value suffices (a stale read needs a
	// committed write and a read, not distinct values), three timeouts
	// cover the two elections plus a heartbeat, one partition isolates the
	// deposed leader.
	cfg := spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}}
	budget := spec.Budget{
		Name: "kv", MaxTimeouts: 3, MaxRequests: 2, MaxPartitions: 1, MaxBuffer: 3,
	}
	st := sandtable.New(sys, cfg, budget, bugdb.NoBugs().With(bugdb.XKVStaleRead))

	fmt.Println("== hunting the stale read ==")
	opts := explorer.DefaultOptions()
	opts.Deadline = 3 * time.Minute
	res := st.Check(opts)
	v := res.FirstViolation()
	if v == nil {
		panic("linearizability violation not found")
	}
	fmt.Printf("%s at depth %d (%d states, %s):\n  %v\n\n",
		v.Invariant, v.Depth, res.DistinctStates, res.Duration.Round(time.Millisecond), v.Err)
	fmt.Println(v.Trace.Format(false))

	fmt.Println("== confirming at the implementation level ==")
	conf, err := st.Confirm(v.Trace, sandtable.Settings{}, sandtable.Sinks{})
	if err != nil {
		panic(err)
	}
	if !conf.Confirmed {
		panic("replay diverged: " + conf.Divergence.Describe())
	}
	fmt.Printf("confirmed: the store really served the stale value (%d events replayed)\n\n", conf.Steps)

	fmt.Println("== independent check: the recorded history admits no linearization ==")
	h := historyFromTrace(v.Trace)
	fmt.Printf("history: %s\n", histories.Explain(h))
	if histories.Check(h) {
		panic("the Wing-Gong checker should reject this history")
	}
	fmt.Println("confirmed by the Wing-Gong register checker: not linearizable")
	fmt.Println()

	fmt.Println("== validating the ReadIndex fix ==")
	rep, err := st.ValidateFix(
		[]bugdb.Key{bugdb.XKVStaleRead},
		conformance.Options{Walks: 100, WalkDepth: 25, Seed: 2},
		opts,
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("conformance passed=%v, model checking clean=%v (%d states, %s)\n",
		rep.Conformance.Passed(), len(rep.Check.Violations) == 0, rep.Check.DistinctStates, rep.Check.StopReason)
}

// historyFromTrace extracts the client operation history from a violating
// trace: puts complete when the cluster-wide commit frontier covers them
// (in log order); the stale get is the final read.
func historyFromTrace(t *trace.Trace) []histories.Op {
	var ops []histories.Op
	var pending []int // indexes into ops of uncommitted writes, in log order
	committed := 0
	for i, step := range t.Steps {
		ev := step.Event
		switch {
		case ev.Action == "ClientPut":
			fields := strings.Fields(ev.Payload) // "put x v"
			ops = append(ops, histories.Op{
				Client: ev.Node, Kind: histories.Write,
				Key: fields[1], Value: fields[2],
				Invoke: i, Complete: len(t.Steps) + i, // completes when committed
			})
			pending = append(pending, len(ops)-1)
		case ev.Action == "ClientGet":
			fields := strings.Fields(ev.Payload)
			val := ""
			if lr, ok := step.Vars["lastRead["+strconv.Itoa(ev.Node)+"]"]; ok {
				if j := strings.IndexByte(lr, '='); j >= 0 {
					val = lr[j+1:]
				}
			}
			ops = append(ops, histories.Op{
				Client: ev.Node + 100, Kind: histories.Read,
				Key: fields[1], Value: val, Invoke: i, Complete: i,
			})
		}
		// Advance the commit frontier: max commit index over up nodes.
		front := committed
		for k, v := range step.Vars {
			if strings.HasPrefix(k, "commit[") {
				if c, err := strconv.Atoi(v); err == nil && c > front {
					front = c
				}
			}
		}
		for committed < front && len(pending) > 0 {
			ops[pending[0]].Complete = i
			pending = pending[1:]
			committed++
		}
	}
	return ops
}
