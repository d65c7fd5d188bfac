package experiments

import "github.com/sandtable-go/sandtable/internal/spec"

// filteredMachine restricts a machine's invariants to a chosen subset, so a
// deep scenario (e.g. Figure 7's committed-log inconsistency) can be hunted
// without stopping at shallower flag-style violations on the way.
type filteredMachine struct {
	spec.Machine
	keep map[string]bool
}

// onlyInvariant wraps m keeping just the named invariants.
func onlyInvariant(m spec.Machine, names ...string) spec.Machine {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	return &filteredMachine{Machine: m, keep: keep}
}

// Invariants implements spec.Machine.
func (f *filteredMachine) Invariants() []spec.Invariant {
	var out []spec.Invariant
	for _, inv := range f.Machine.Invariants() {
		if f.keep[inv.Name] {
			out = append(out, inv)
		}
	}
	return out
}
