package sandtable_test

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// toySystem wires the toy lost-update model into the facade with a dummy
// single-node implementation, exercising the workflow plumbing without the
// cost of a full Raft integration (those live in internal/integrations).
func toySystem() *sandtable.System {
	return &sandtable.System{
		Name:          "toy",
		DefaultConfig: spec.Config{Name: "n2", Nodes: 2},
		DefaultBudget: spec.Budget{Name: "none"},
		NewMachine: func(cfg spec.Config, b spec.Budget, bugs bugdb.Set) spec.Machine {
			return &toy.LostUpdate{N: cfg.Nodes, Atomic: !bugs.Has("toy.race")}
		},
		NewCluster: func(cfg spec.Config, bugs bugdb.Set, seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{Nodes: cfg.Nodes}, func(id int) vos.Process {
				return nopProcess{}
			})
		},
	}
}

type nopProcess struct{}

func (nopProcess) Start(vos.Env)        {}
func (nopProcess) Receive(int, []byte)  {}
func (nopProcess) Tick()                {}
func (nopProcess) ClientRequest(string) {}
func (nopProcess) Fields() []string     { return nil }
func (nopProcess) Observe([]string)     {}

func TestCheckFindsAndFixValidates(t *testing.T) {
	st := sandtable.New(toySystem(), spec.Config{Name: "n2", Nodes: 2}, spec.Budget{}, bugdb.Set{"toy.race": true})
	res := st.Check(explorer.DefaultOptions())
	if res.FirstViolation() == nil {
		t.Fatal("racy toy model should violate")
	}
	fixed := sandtable.New(st.Sys, st.Config, st.Budget, bugdb.NoBugs())
	if v := fixed.Check(explorer.DefaultOptions()).FirstViolation(); v != nil {
		t.Fatalf("fixed model violated: %v", v)
	}
}

func TestConfirmRequiresTrace(t *testing.T) {
	st := sandtable.New(toySystem(), spec.Config{Nodes: 2}, spec.Budget{}, bugdb.NoBugs())
	if _, err := st.Confirm(nil, sandtable.Settings{}, sandtable.Sinks{}); err == nil {
		t.Error("confirming without a trace must fail")
	}
}

func TestRankUsesSessionBugs(t *testing.T) {
	st := sandtable.New(toySystem(), spec.Config{Name: "n2", Nodes: 2}, spec.Budget{}, bugdb.NoBugs())
	r := st.Rank(
		[]spec.Config{{Name: "n2", Nodes: 2}, {Name: "n3", Nodes: 3}},
		[]spec.Budget{{Name: "only"}},
		ranking.Options{WalksPerPair: 4, Seed: 1},
	)
	if len(r.ByConfig) != 2 {
		t.Fatalf("configs ranked = %d", len(r.ByConfig))
	}
}
