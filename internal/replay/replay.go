// Package replay converts specification-level trace events into
// deterministic-execution commands and replays them against a running
// cluster — the mechanism behind both conformance checking (§3.2) and bug
// confirmation (§3.4 — "SandTable reproduces the bugs at the implementation
// level by replaying the event interleaving").
package replay

import (
	"fmt"
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
	// IgnoreVars excludes variable keys from comparison (a slot mask, built
	// once per schema).
	IgnoreVars []string
	// Observe overrides how implementation variables are collected
	// (defaults to Cluster.ObserveSlots). Its map goes into slots through
	// the comparison's schema: a key outside the schema is not compared.
	Observe func(*engine.Cluster) (map[string]string, error)
	// Tracer, when set, is installed on the cluster for the duration of
	// the replay (engine + vnet events) and additionally receives a final
	// replay-layer "conform" or "diverge" verdict with the diffing
	// variables.
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

// Checker is the per-event half of a replay, shared by the two ways events
// reach it: Run feeds it a recorded trace, and conformance feeds it a
// specification walk in lock-step, one step as it is taken. For each event
// it applies the command, observes the implementation into slots of one
// schema, compares them with the specification's slots (Schema.Diff), and
// runs AfterStep. A passing step builds no map: only a divergence renders
// the two sides' maps.
type Checker struct {
	opts   Options
	c      *engine.Cluster
	schema *trace.Schema
	mask   []bool   // IgnoreVars
	impl   []string // the implementation's slots, refilled at every compare

	steps, divergences *obs.Counter
}

// NewChecker returns a checker that compares in schema s, which must hold
// every key the cluster renders (Cluster.Fields and the network variables):
// the cluster's own Schema, or the specification's extended With its
// Fields.
func NewChecker(s *trace.Schema, opts Options) *Checker {
	return &Checker{
		opts:        opts,
		schema:      s,
		mask:        s.Mask(opts.IgnoreVars),
		impl:        s.Clear(nil),
		steps:       opts.Metrics.Counter("replay.steps"),
		divergences: opts.Metrics.Counter("replay.divergences"),
	}
}

// Schema is the schema the checker compares in.
func (k *Checker) Schema() *trace.Schema { return k.schema }

// Attach makes c the cluster the next steps run on, and installs the
// checker's tracer and metrics on it.
func (k *Checker) Attach(c *engine.Cluster) {
	k.c = c
	if k.opts.Tracer != nil {
		c.SetTracer(k.opts.Tracer)
	}
	if k.opts.Metrics != nil {
		c.SetMetrics(k.opts.Metrics)
	}
}

// Step executes event ev, step i of its trace, which must convert to a
// command, on the attached cluster. With spec non-nil (the specification's slots after the event)
// it then compares; specVars, when the specification side came as a map,
// is what a divergence reports instead of the map its slots render. The
// result is nil when the step conforms; the error is an observation
// failure.
func (k *Checker) Step(i int, ev trace.Event, spec []string, specVars map[string]string) (*StepResult, error) {
	c := k.c
	cmd, _ := Convert(ev)
	k.steps.Inc()
	if err := c.Apply(cmd); err != nil {
		return k.diverge(&StepResult{Step: i, Event: ev, Err: err}), nil
	}
	if spec != nil {
		var implVars map[string]string
		if k.opts.Observe != nil {
			m, err := k.opts.Observe(c)
			if err != nil {
				return nil, fmt.Errorf("replay: observe after step %d: %w", i+1, err)
			}
			k.impl, implVars = k.schema.Slots(k.impl, m), m
		} else {
			c.ObserveSlots(k.schema, k.impl)
		}
		if diff := k.schema.Diff(spec, k.impl, k.mask); len(diff) > 0 {
			if specVars == nil {
				specVars = k.schema.Map(spec)
			}
			if implVars == nil {
				implVars = k.schema.Map(k.impl)
			}
			return k.diverge(&StepResult{Step: i, Event: ev, DiffKeys: diff, SpecVars: specVars, ImplVars: implVars}), nil
		}
	}
	if k.opts.AfterStep != nil {
		if err := k.opts.AfterStep(i, c); err != nil {
			return k.diverge(&StepResult{Step: i, Event: ev, Err: err}), nil
		}
	}
	return nil, nil
}

func (k *Checker) diverge(sr *StepResult) *StepResult {
	k.divergences.Inc()
	return sr
}

// Verdict emits the replay's verdict event to the tracer: "diverge" with
// the divergence's step, event, error and diverging keys, or "conform" with
// the steps executed. detail adds entries (conformance adds the walk's
// depth).
func (k *Checker) Verdict(res *Result, detail map[string]string) {
	if k.opts.Tracer == nil {
		return
	}
	if detail == nil {
		detail = make(map[string]string)
	}
	kind, node := "conform", -1
	if sr := res.Divergence; sr != nil {
		kind, node = "diverge", sr.Event.Node
		detail["step"] = strconv.Itoa(sr.Step + 1)
		detail["event"] = sr.Event.String()
		if sr.Err != nil {
			detail["error"] = sr.Err.Error()
		}
		if len(sr.DiffKeys) > 0 {
			detail["diff_keys"] = strings.Join(sr.DiffKeys, ",")
		}
	} else {
		detail["steps"] = strconv.Itoa(res.Steps)
	}
	k.opts.Tracer.Emit(obs.Event{Layer: "replay", Kind: kind, Node: node, Detail: detail})
}

// Run replays a trace against the cluster, comparing in the cluster's
// schema: each step's rendered variables go into slots through it (a key
// the implementation never renders cannot diverge).
func Run(t *trace.Trace, c *engine.Cluster, opts Options) (*Result, error) {
	k := NewChecker(c.Schema(), opts)
	k.Attach(c)
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
	res := &Result{}
	var spec []string
	for i, step := range t.Steps {
		if _, ok := Convert(step.Event); !ok {
			continue
		}
		res.Steps++
		var slots []string
		if (opts.CompareEachStep || i == last) && step.Vars != nil {
			spec = k.schema.Slots(spec, step.Vars)
			slots = spec
		}
		sr, err := k.Step(i, step.Event, slots, step.Vars)
		if err != nil {
			return nil, err
		}
		if sr != nil {
			res.Divergence = sr
			break
		}
	}
	k.Verdict(res, nil)
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
