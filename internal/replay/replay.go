// Package replay converts specification-level trace events into
// deterministic-execution commands and replays them against a running
// cluster — the mechanism behind both conformance checking (§3.2) and bug
// confirmation (§3.4 — "SandTable reproduces the bugs at the implementation
// level by replaying the event interleaving").
package replay

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Convert maps one trace event to an engine command. Message delivery and
// failure events convert automatically; timeout events carry their kind in
// Payload and resolve against the cluster's configured timeout table;
// client-request events carry their payload verbatim (the user-supplied
// request command of §3.2).
func Convert(ev trace.Event) (engine.Command, bool) {
	switch ev.Type {
	case trace.EvInternal:
		return engine.Command{}, false
	default:
		return engine.Command{
			Type:    ev.Type,
			Node:    ev.Node,
			Peer:    ev.Peer,
			Index:   ev.Index,
			Payload: ev.Payload,
		}, true
	}
}

// StepResult records the comparison outcome after one replayed event.
type StepResult struct {
	Step  int
	Event trace.Event
	// DiffKeys are the variables whose specification and implementation
	// values disagree after this event (nil when conforming).
	DiffKeys []string
	SpecVars map[string]string
	ImplVars map[string]string
	// Err is a command-execution failure (including implementation crashes
	// surfaced as *engine.CrashError).
	Err error
}

// Divergent reports whether the step exposed a discrepancy.
func (s *StepResult) Divergent() bool { return s.Err != nil || len(s.DiffKeys) > 0 }

// Describe renders the discrepancy for the report the user debugs from.
func (s *StepResult) Describe() string {
	if s.Err != nil {
		return fmt.Sprintf("step %d (%s): %v", s.Step+1, s.Event, s.Err)
	}
	out := fmt.Sprintf("step %d (%s): %d variable(s) diverge:", s.Step+1, s.Event, len(s.DiffKeys))
	for _, k := range s.DiffKeys {
		out += fmt.Sprintf("\n  %-14s spec=%s impl=%s", k, s.SpecVars[k], s.ImplVars[k])
	}
	return out
}

// Result is a full replay outcome.
type Result struct {
	Steps      int
	Divergence *StepResult // first divergent step, nil when fully conforming
	// Confirmed is set by ConfirmBug: the implementation reproduced every
	// specification state along the bug trace, so the bug is real (§3.4).
	Confirmed bool
}

// Options tunes a replay.
type Options struct {
	// CompareEachStep diffs spec vs impl variables after every event
	// (conformance mode). When false only command execution errors are
	// detected (fast confirmation mode still compares the final state).
	CompareEachStep bool
	// IgnoreVars excludes variable keys from comparison.
	IgnoreVars []string
	// Observe overrides how implementation variables are collected
	// (defaults to Cluster.ObserveInto one map per run).
	Observe func(*engine.Cluster) (map[string]string, error)
	// Tracer, when set, is installed on the cluster for the duration of
	// the replay (engine + vnet events) and additionally receives
	// replay-layer events: one "step" per converted event and a final
	// "conform" or "diverge" verdict with the diffing variables.
	Tracer *obs.Tracer
	// Metrics, when set, is installed on the cluster and receives
	// replay.steps / replay.divergences counters.
	Metrics *obs.Registry
	// AfterStep, when set, runs after every executed (convertible) event,
	// following the state comparison for that step. A returned error is
	// recorded as a divergence at the step's trace index. Conformance
	// checking uses this for per-event resource checks (e.g. the CRaft#6
	// buffer leak) without splitting the walk into sub-traces.
	AfterStep func(step int, c *engine.Cluster) error
}

// Run replays a trace against the cluster.
func Run(t *trace.Trace, c *engine.Cluster, opts Options) (*Result, error) {
	observe := opts.Observe
	if observe == nil {
		// One map per run, refilled at every compare and sized like the
		// specification rendering it is compared with. It never leaves Run:
		// a diverging step keeps a copy.
		scratch := make(map[string]string, len(t.Init))
		observe = func(c *engine.Cluster) (map[string]string, error) {
			c.ObserveInto(scratch)
			return scratch, nil
		}
	}
	if opts.Tracer != nil {
		c.SetTracer(opts.Tracer)
	}
	if opts.Metrics != nil {
		c.SetMetrics(opts.Metrics)
	}
	steps := opts.Metrics.Counter("replay.steps")
	divergences := opts.Metrics.Counter("replay.divergences")
	ignored := make(map[string]bool, len(opts.IgnoreVars))
	for _, k := range opts.IgnoreVars {
		ignored[k] = true
	}
	res := &Result{}
	diverge := func(sr *StepResult) {
		res.Divergence = sr
		divergences.Inc()
		if opts.Tracer != nil {
			detail := map[string]string{"step": strconv.Itoa(sr.Step + 1), "event": sr.Event.String()}
			if sr.Err != nil {
				detail["error"] = sr.Err.Error()
			}
			if len(sr.DiffKeys) > 0 {
				detail["diff_keys"] = strings.Join(sr.DiffKeys, ",")
			}
			opts.Tracer.Emit(obs.Event{Layer: "replay", Kind: "diverge", Node: sr.Event.Node, Detail: detail})
		}
	}
	// The final-state comparison of fast confirmation mode anchors on the
	// last *convertible* step: a trace may end in EvInternal events (spec
	// bookkeeping with no implementation command), and comparing only at the
	// literal last index would silently skip the compare for such traces.
	last := -1
	for i := range t.Steps {
		if _, ok := Convert(t.Steps[i].Event); ok {
			last = i
		}
	}
	for i, step := range t.Steps {
		cmd, ok := Convert(step.Event)
		if !ok {
			continue
		}
		res.Steps++
		steps.Inc()
		sr := &StepResult{Step: i, Event: step.Event}
		if err := c.Apply(cmd); err != nil {
			sr.Err = err
			diverge(sr)
			return res, nil
		}
		compare := opts.CompareEachStep || i == last
		if compare && step.Vars != nil {
			impl, err := observe(c)
			if err != nil {
				return nil, fmt.Errorf("replay: observe after step %d: %w", i+1, err)
			}
			diff := diffIntersection(step.Vars, impl, ignored)
			if len(diff) > 0 {
				sr.DiffKeys = diff
				sr.SpecVars = step.Vars
				sr.ImplVars = impl
				if opts.Observe == nil {
					sr.ImplVars = maps.Clone(impl)
				}
				diverge(sr)
				return res, nil
			}
		}
		if opts.AfterStep != nil {
			if err := opts.AfterStep(i, c); err != nil {
				sr.Err = err
				diverge(sr)
				return res, nil
			}
		}
	}
	if opts.Tracer != nil {
		opts.Tracer.Emit(obs.Event{
			Layer: "replay", Kind: "conform", Node: -1,
			Detail: map[string]string{"steps": strconv.Itoa(res.Steps)},
		})
	}
	return res, nil
}

// ConfirmBug replays a violation trace and confirms the bug exists in the
// implementation: the replay must conform at every step, ending in the
// violating state. Any discrepancy means the specification does not match
// the implementation (a potential false alarm) and is reported instead.
func ConfirmBug(t *trace.Trace, c *engine.Cluster, opts Options) (*Result, error) {
	opts.CompareEachStep = true
	res, err := Run(t, c, opts)
	if err != nil {
		return nil, err
	}
	res.Confirmed = res.Divergence == nil
	return res, nil
}

// diffIntersection returns the keys present in both maps (minus ignored)
// whose values differ — SandTable compares the specification variables with
// their implementation counterparts (§3.2).
func diffIntersection(spec, impl map[string]string, ignored map[string]bool) []string {
	keys := trace.DiffVars(spec, impl)
	out := keys[:0]
	for _, k := range keys {
		if !ignored[k] {
			out = append(out, k)
		}
	}
	return out
}
