package integrations

import (
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

// TestSlackRecyclingOnEverySystem runs the slack-recycling law of
// spec.BufferedMachine (spectest.AssertBufferedEquiv) on every integrated
// system as `sandtable check` builds it, fixed and with every defect on, and
// on the toy model; and hands each a buffer whose slack another machine
// filled — the same system at another node count, and a machine of another
// type — which it must replace, not trip over.
func TestSlackRecyclingOnEverySystem(t *testing.T) {
	rows := map[string]func(nodes int) spec.Machine{
		"toy": func(nodes int) spec.Machine { return &toy.LostUpdate{N: nodes + 1} },
	}
	for _, sys := range All() {
		for suffix, bugs := range map[string]bugdb.Set{"": bugdb.NoBugs(), "-buggy": bugdb.AllBugs(sys.Name)} {
			rows[sys.Name+suffix] = func(nodes int) spec.Machine {
				cfg := sys.DefaultConfig
				cfg.Nodes = nodes
				return sys.NewMachine(cfg, sys.DefaultBudget, bugs)
			}
		}
	}
	for name, mk := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := mk(3)
			spectest.AssertBufferedEquiv(t, m, 8, 60, 17)
			spectest.AssertSlackTolerates(t, m, mk(2))
			other := rows["toy"]
			if name == "toy" {
				other = rows["craft"]
			}
			spectest.AssertSlackTolerates(t, m, other(3))
		})
	}
}
