package explorer

import (
	"slices"

	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// reconstruct rebuilds the counterexample trace for a violation. The visited
// set stores only fingerprints and parent edges (never full states, exactly
// as TLC does), so reconstruction walks the parent chain backwards to a root
// and then re-executes the specification forwards, at each step picking the
// successor whose canonical fingerprint matches the next link in the chain.
//
// With symmetry reduction on, the forward re-execution may traverse a
// node-permuted variant of the state BFS originally discovered; canonical
// fingerprints are permutation-invariant, so the chain still resolves and
// the recorded events form a real execution of the specification.
func (c *Checker) reconstruct(v *Violation) *trace.Trace {
	// Backward pass: fingerprint chain from root to the violating state.
	var chain []uint64
	fp := v.fp
	for {
		e, ok := c.lookupEdge(fp)
		if !ok {
			return nil
		}
		chain = append(chain, fp)
		if e.Depth == 0 {
			break
		}
		fp = e.Parent
	}
	// Reverse in place: chain[0] is now the root.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	// Forward pass: find the root init state, then follow the chain.
	var cur spec.State
	for _, s := range c.m.Init() {
		if c.canonicalFP(s) == chain[0] {
			cur = s
			break
		}
	}
	if cur == nil {
		return nil
	}

	t := &trace.Trace{System: c.m.Name()}
	if c.opts.RecordVars {
		t.Init = spec.VarsOf(cur)
	}
	var buf []spec.Succ
	var kept spec.State // cur once a step took it out of buf, never an Init state
	for _, want := range chain[1:] {
		buf = c.m.AppendNext(cur, buf[:0])
		i := slices.IndexFunc(buf, func(su spec.Succ) bool { return c.canonicalFP(su.State) == want })
		if i < 0 {
			return nil
		}
		// The next parent must not sit in the slack; the state left goes there.
		cur = spec.Keep(buf, i, kept)
		kept = cur
		step := trace.Step{Event: buf[i].Event, Fingerprint: want}
		if c.opts.RecordVars {
			step.Vars = spec.VarsOf(cur)
		}
		t.Steps = append(t.Steps, step)
	}
	return t
}
