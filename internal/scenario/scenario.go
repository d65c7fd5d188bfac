// Package scenario drives a specification machine through a scripted event
// sequence and records the resulting trace — directed testing on top of the
// specification. SandTable's workflow uses it where a state is known to
// matter but sits too deep for bounded search to reach comfortably (e.g.
// steering a snapshot transfer onto a conflicting follower log for the
// CRaft#3 conformance demonstration); users can script regression scenarios
// the same way.
package scenario

import (
	"fmt"
	"strings"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Run executes the scripted events against the machine, starting from its
// (single) initial state. Each script entry must match the String() of
// exactly one enabled event (a unique prefix is accepted). The returned
// trace carries per-step variables, ready for implementation-level replay.
func Run(m spec.Machine, script []string) (*trace.Trace, error) {
	inits := m.Init()
	if len(inits) != 1 {
		return nil, fmt.Errorf("scenario: machine has %d initial states, want 1", len(inits))
	}
	cur := inits[0]
	t := &trace.Trace{System: m.Name(), Init: spec.VarsOf(cur)}
	var succs []spec.Succ
	var kept spec.State // cur once a step took it out of succs, never inits[0]
	for i, want := range script {
		succs = m.AppendNext(cur, succs[:0])
		match, matches := -1, 0
		for k, su := range succs {
			s := su.Event.String()
			if s == want || strings.HasPrefix(s, want) {
				match = k
				matches++
			}
		}
		switch matches {
		case 1:
			// cur is the next parent: take it out of the buffer the next
			// AppendNext recycles, and hand the state it leaves back to it.
			cur = spec.Keep(succs, match, kept)
			kept = cur
			t.Steps = append(t.Steps, trace.Step{
				Event:       succs[match].Event,
				Vars:        spec.VarsOf(cur),
				Fingerprint: cur.Fingerprint(),
			})
		case 0:
			return nil, fmt.Errorf("scenario: step %d: no enabled event matches %q; enabled:\n%s",
				i+1, want, enabledList(succs))
		default:
			return nil, fmt.Errorf("scenario: step %d: %q is ambiguous (%d matches); enabled:\n%s",
				i+1, want, matches, enabledList(succs))
		}
	}
	return t, nil
}

func enabledList(succs []spec.Succ) string {
	var b strings.Builder
	for _, su := range succs {
		fmt.Fprintf(&b, "  %s\n", su.Event.String())
	}
	return b.String()
}
