// Package sandtable is the public facade of the framework: it ties together
// the Figure-1 workflow of the paper — conformance checking (§3.2),
// specification-level model checking (§3.3), bug confirmation by
// deterministic replay, and fix validation (§3.4) — for one integrated
// target system. sandtable.go holds the session and its stage primitives;
// run.go is the run layer both front ends (cmd/sandtable, internal/serve)
// drive.
package sandtable

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// System describes one integrated target system: how to build its
// specification machine, how to boot its implementation cluster, and how to
// observe implementation state for conformance.
type System struct {
	Name string
	// DefaultConfig/DefaultBudget are the model-checking settings used by
	// the experiment harness (chosen with the §3.3 ranking heuristics).
	DefaultConfig spec.Config
	DefaultBudget spec.Budget
	// NewMachine builds the specification.
	NewMachine func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine
	// NewCluster boots the implementation under the deterministic engine.
	NewCluster func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error)
	// Observe overrides implementation state collection.
	Observe func(*engine.Cluster) (map[string]string, error)
	// ResourceCheck flags general correctness bugs during conformance.
	ResourceCheck func(*engine.Cluster) error
	// IgnoreVars excludes variables from spec/impl comparison.
	IgnoreVars []string
}

// SandTable is one checking session: a system instantiated with a model
// configuration, a budget constraint, and a defect set.
type SandTable struct {
	Sys    *System
	Config spec.Config
	Budget spec.Budget
	// SpecBugs are the defects modelled in the specification (SandTable
	// specifications describe the actual, buggy implementation; bugs found
	// at the conformance or modeling stage are impl-only and never appear
	// here).
	SpecBugs bugdb.Set
	// ImplBugs are the defects present in the implementation build.
	ImplBugs bugdb.Set
}

// New builds a session where specification and implementation carry the
// same defect set (the aligned state reached after conformance checking).
func New(sys *System, cfg spec.Config, b spec.Budget, bugs bugdb.Set) *SandTable {
	return &SandTable{Sys: sys, Config: cfg, Budget: b, SpecBugs: bugs, ImplBugs: bugs}
}

// Machine instantiates the specification for this session.
func (st *SandTable) Machine() spec.Machine {
	return st.Sys.NewMachine(st.Config, st.Budget, st.SpecBugs)
}

// Label identifies the session's model — system/config/budget plus the
// sorted enabled defect set. Checkpoints are stamped with it so a snapshot
// written under one session setup refuses to resume under another, and
// cluster handshakes digest it so mismatched peers refuse to form a mesh.
func (st *SandTable) Label() string {
	var bugs []string
	for k, on := range st.SpecBugs {
		if on {
			bugs = append(bugs, string(k))
		}
	}
	sort.Strings(bugs)
	return fmt.Sprintf("%s/%s/%s/%s", st.Sys.Name, st.Config.Name, st.Budget.Name, strings.Join(bugs, ","))
}

// target builds the conformance target for this session.
func (st *SandTable) target() *conformance.Target {
	return &conformance.Target{
		Machine:       st.Machine(),
		NewCluster:    st.newCluster,
		Observe:       st.Sys.Observe,
		ResourceCheck: st.Sys.ResourceCheck,
		IgnoreVars:    st.Sys.IgnoreVars,
	}
}

// Conform runs one conformance round (§3.2).
func (st *SandTable) Conform(opts conformance.Options) (*conformance.Report, error) {
	return conformance.Run(st.target(), opts)
}

// Check runs specification-level model checking (§3.3).
func (st *SandTable) Check(opts explorer.Options) *explorer.Result {
	return explorer.NewChecker(st.Machine(), opts).Run()
}

// Confirm replays a counterexample trace at the implementation level
// (§3.4). A confirmed result means the implementation reproduced every
// specification state along the trace, ending in the violating one — the
// bug is real, not a false alarm. It is the one place a replay cluster is
// booted: the settings supply the panic policy, the sinks the tracer,
// registry and "replay" phase timer (both may be zero).
func (st *SandTable) Confirm(tr *trace.Trace, set Settings, sinks Sinks) (*replay.Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("sandtable: no trace to replay")
	}
	defer sinks.Metrics.StartPhase("replay")()
	cluster, err := st.newCluster(1)
	if err != nil {
		return nil, err
	}
	if set.ToleratePanics {
		cluster.SetPanicPolicy(engine.PanicPolicy{
			Tolerate:        true,
			MaxAutoRestarts: set.MaxAutoRestarts,
			Mode:            vos.CrashMode(set.PanicCrashMode),
			Backoff:         50 * time.Millisecond,
		})
	}
	return replay.ConfirmBug(tr, cluster, replay.Options{
		IgnoreVars: st.Sys.IgnoreVars,
		Observe:    st.Sys.Observe,
		Tracer:     sinks.Tracer,
		Metrics:    sinks.Metrics,
	})
}

// FixReport is the outcome of fix validation.
type FixReport struct {
	Conformance *conformance.Report
	Check       *explorer.Result
}

// Clean reports whether the fix validated: conformance passed and model
// checking found no violation.
func (r *FixReport) Clean() bool {
	return r.Conformance.Passed() && len(r.Check.Violations) == 0
}

// ValidateFix re-runs the workflow with a defect set where the given bugs
// are fixed in both the specification and the implementation: conformance
// ensures the fix introduced no new discrepancy, and model checking ensures
// the bug is gone and no regression appeared (§3.4).
func (st *SandTable) ValidateFix(fixed []bugdb.Key, confOpts conformance.Options, checkOpts explorer.Options) (*FixReport, error) {
	fixedSession := &SandTable{
		Sys:      st.Sys,
		Config:   st.Config,
		Budget:   st.Budget,
		SpecBugs: st.SpecBugs.Without(fixed...),
		ImplBugs: st.ImplBugs.Without(fixed...),
	}
	conf, err := fixedSession.Conform(confOpts)
	if err != nil {
		return nil, err
	}
	return &FixReport{Conformance: conf, Check: fixedSession.Check(checkOpts)}, nil
}

// Rank applies Algorithm 1 to candidate configurations and budgets for this
// system (§3.3).
func (st *SandTable) Rank(configs []spec.Config, budgets []spec.Budget, opts ranking.Options) *ranking.Ranking {
	factory := func(cfg spec.Config, b spec.Budget) spec.Machine {
		return st.Sys.NewMachine(cfg, b, st.SpecBugs)
	}
	return ranking.Rank(factory, configs, budgets, opts)
}
