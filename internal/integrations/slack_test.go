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
// on the toy model — through a buffer whose slack other machines keep
// refilling: the same system at two and at five nodes (a state finds its
// storage through its own slices, so one too small must be replaced and one
// larger re-carved, never aliased) and a machine of another type.
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
			other := rows["toy"]
			if name == "toy" {
				other = rows["craft"]
			}
			spectest.AssertBufferedEquiv(t, mk(3), 9, 60, 17, mk(2), mk(5), other(3))
		})
	}
}
