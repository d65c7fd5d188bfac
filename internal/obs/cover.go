package obs

import (
	"sort"
)

// This file implements the state-space coverage profiler: per-action and
// per-depth accounting for a checking run, the reproduction's analogue of
// TLC's action-coverage reporting ("action X fired N times, yielding M
// distinct states"). The data answers the question a bare progress line
// cannot: is a long run still discovering new behaviour, and which parts of
// the specification is it exercising?
//
// Collection is two-phase so the explorer's allocation-lean expansion
// pipeline keeps its wins: each expansion worker owns a private WorkerCover
// it updates lock-free on the hot path, and the serial merge loop folds
// every worker's deltas into the run-level Cover at block/level barriers —
// the same places counters and fresh states are already drained, so the
// profiler adds no synchronisation of its own.

// ActionStats accumulates coverage for one specification action.
type ActionStats struct {
	// Fired counts successors this action generated (in BFS every enabled
	// action fires; in simulation only the chosen action per step does).
	Fired int64 `json:"fired"`
	// Fresh counts fired transitions that produced a previously unseen
	// distinct state — the action's contribution to coverage. In simulation
	// mode it is populated only when distinct-state tracking is on.
	Fresh int64 `json:"fresh"`
	// FirstDepth is the shallowest depth at which the action fired
	// (-1 until it fires).
	FirstDepth int `json:"first_depth"`
	// LastFreshDepth is the deepest level at which the action still yielded
	// a new distinct state (-1 if it never did) — when it is far behind the
	// current depth the action has saturated.
	LastFreshDepth int `json:"last_fresh_depth"`
}

// Yield is the fraction of the action's fired transitions that discovered a
// new distinct state.
func (a *ActionStats) Yield() float64 {
	if a.Fired == 0 {
		return 0
	}
	return float64(a.Fresh) / float64(a.Fired)
}

// LevelStats profiles one completed BFS level (or, in simulation mode, one
// batch of walks).
type LevelStats struct {
	Depth int `json:"depth"`
	// Frontier is the number of states that entered the level for
	// expansion.
	Frontier int `json:"frontier"`
	// Fresh is the number of new distinct states discovered by the level.
	Fresh int `json:"fresh"`
	// Transitions is the number of successors the level generated.
	Transitions int64 `json:"transitions"`
	// Dedup is the number of those successors discarded as already seen.
	Dedup int64 `json:"dedup"`
	// Violations counts invariant violations found at this level.
	Violations int `json:"violations"`
	// FpsetProbes is the fingerprint-set probe count the level consumed
	// (insert/lookup slot inspections), the dedup cost driver.
	FpsetProbes int64 `json:"fpset_probes"`
	// Checkpoint records whether a snapshot was written at this level
	// boundary.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// DedupRatio is the fraction of the level's successors that were duplicates.
func (l *LevelStats) DedupRatio() float64 {
	if l.Transitions == 0 {
		return 0
	}
	return float64(l.Dedup) / float64(l.Transitions)
}

// Cover is the run-level coverage profile. It is built by the serial merge
// loop of a run (never concurrently) and read after the run ends; the JSON
// form is embedded in -metrics-out artifacts under the "cover" key and read
// back by `sandtable report`.
type Cover struct {
	// Schema is the artifact schema version (MetricsSchemaVersion).
	Schema int `json:"schema"`
	// Mode records how the profile was collected: "bfs", "simulate".
	Mode string `json:"mode,omitempty"`
	// Declared is the specification's full action vocabulary when the
	// machine declares one (spec.ActionLister); never-fired detection needs
	// it. Empty when the machine does not declare its actions.
	Declared []string `json:"declared,omitempty"`
	// Actions maps action name to its coverage stats.
	Actions map[string]*ActionStats `json:"actions"`
	// Levels holds one profile per completed BFS level, in depth order
	// (index 0 is the initial-state level at depth 0).
	Levels []LevelStats `json:"levels,omitempty"`
	// SymmetryHits counts successors whose canonical fingerprint differed
	// from their plain fingerprint — states identified with a smaller
	// permutation, the work symmetry reduction saves.
	SymmetryHits int64 `json:"symmetry_hits,omitempty"`
	// ResumedAtDepth is the depth a resumed run continued from (0 for
	// fresh runs); a resumed session profiles only its own levels.
	ResumedAtDepth int `json:"resumed_at_depth,omitempty"`
}

// NewCover builds an empty profile for the given collection mode and
// declared action vocabulary (may be nil).
func NewCover(mode string, declared []string) *Cover {
	c := &Cover{Schema: MetricsSchemaVersion, Mode: mode, Actions: make(map[string]*ActionStats)}
	if len(declared) > 0 {
		c.Declared = append([]string(nil), declared...)
		sort.Strings(c.Declared)
	}
	return c
}

// action returns the stats cell for name, creating it on first use.
func (c *Cover) action(name string) *ActionStats {
	a := c.Actions[name]
	if a == nil {
		a = &ActionStats{FirstDepth: -1, LastFreshDepth: -1}
		c.Actions[name] = a
	}
	return a
}

// Observe records one fired transition directly on the run-level profile —
// the serial-collection entry point used by simulation walks. Concurrent
// collectors must go through WorkerCover instead. No-op on a nil Cover.
func (c *Cover) Observe(name string, depth int, fresh bool) {
	if c == nil {
		return
	}
	a := c.action(name)
	a.Fired++
	if a.FirstDepth < 0 || depth < a.FirstDepth {
		a.FirstDepth = depth
	}
	if fresh {
		a.Fresh++
		if depth > a.LastFreshDepth {
			a.LastFreshDepth = depth
		}
	}
}

// ActionNames returns the union of declared and fired action names, sorted.
func (c *Cover) ActionNames() []string {
	if c == nil {
		return nil
	}
	seen := make(map[string]bool, len(c.Actions)+len(c.Declared))
	var names []string
	for _, n := range c.Declared {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range c.Actions {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// NeverFired returns the declared actions that never fired, sorted — the
// headline flag of the coverage report: a never-fired action means either
// the budget never enables it or the spec (or its declared vocabulary) is
// wrong, exactly the drift coverage reports catch in practice.
func (c *Cover) NeverFired() []string {
	if c == nil {
		return nil
	}
	var out []string
	for _, n := range c.Declared {
		if a, ok := c.Actions[n]; !ok || a.Fired == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TotalFired sums fired transitions across actions.
func (c *Cover) TotalFired() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for _, a := range c.Actions {
		t += a.Fired
	}
	return t
}

// MergeWorker folds one worker's accumulated deltas into the run-level
// profile and resets the worker for its next block. Call only from the
// serial merge loop (the explorer's block drain). Nil-safe on both sides.
func (c *Cover) MergeWorker(w *WorkerCover) {
	if c == nil || w == nil {
		return
	}
	c.SymmetryHits += w.symHits
	w.symHits = 0
	for name, wa := range w.actions {
		if wa.Fired == 0 {
			continue
		}
		a := c.action(name)
		a.Fired += wa.Fired
		a.Fresh += wa.Fresh
		if wa.FirstDepth >= 0 && (a.FirstDepth < 0 || wa.FirstDepth < a.FirstDepth) {
			a.FirstDepth = wa.FirstDepth
		}
		if wa.LastFreshDepth > a.LastFreshDepth {
			a.LastFreshDepth = wa.LastFreshDepth
		}
		// Reset in place: the cell (and the map entry) is reused next
		// block, so steady-state merging allocates nothing.
		wa.Fired, wa.Fresh, wa.FirstDepth, wa.LastFreshDepth = 0, 0, -1, -1
	}
}

// Merge folds another run-level profile into c — the cross-peer aggregation
// step of a distributed run, where every peer profiles its own share of the
// state space and the final barrier sums the shares. Per-depth level rows are
// matched by depth and their counters added; action cells sum Fired/Fresh,
// take the earliest FirstDepth and the deepest LastFreshDepth. Call only
// after both profiles are quiescent. Nil-safe on both sides.
func (c *Cover) Merge(o *Cover) {
	if c == nil || o == nil {
		return
	}
	c.SymmetryHits += o.SymmetryHits
	for name, oa := range o.Actions {
		if oa.Fired == 0 {
			continue
		}
		a := c.action(name)
		a.Fired += oa.Fired
		a.Fresh += oa.Fresh
		if oa.FirstDepth >= 0 && (a.FirstDepth < 0 || oa.FirstDepth < a.FirstDepth) {
			a.FirstDepth = oa.FirstDepth
		}
		if oa.LastFreshDepth > a.LastFreshDepth {
			a.LastFreshDepth = oa.LastFreshDepth
		}
	}
	byDepth := make(map[int]int, len(c.Levels))
	for i := range c.Levels {
		byDepth[c.Levels[i].Depth] = i
	}
	for _, ol := range o.Levels {
		i, ok := byDepth[ol.Depth]
		if !ok {
			byDepth[ol.Depth] = len(c.Levels)
			c.Levels = append(c.Levels, ol)
			continue
		}
		l := &c.Levels[i]
		l.Frontier += ol.Frontier
		l.Fresh += ol.Fresh
		l.Transitions += ol.Transitions
		l.Dedup += ol.Dedup
		l.Violations += ol.Violations
		l.FpsetProbes += ol.FpsetProbes
		l.Checkpoint = l.Checkpoint || ol.Checkpoint
	}
	sort.Slice(c.Levels, func(i, j int) bool { return c.Levels[i].Depth < c.Levels[j].Depth })
}

// WorkerCover is one expansion worker's private coverage accumulator. All
// methods are single-goroutine (the owning worker between barriers, the
// merge loop at barriers); no atomics are needed because the explorer's
// block drain is already a synchronisation point. A nil *WorkerCover
// accepts every call as a no-op, so expansion code records unconditionally.
type WorkerCover struct {
	actions map[string]*ActionStats
	// One-entry cache: successor enumeration emits runs of the same action
	// name (a spec enumerates per action kind in order), so most lookups
	// hit the cached cell without touching the map.
	lastName string
	last     *ActionStats
	symHits  int64
}

// NewWorkerCover builds an empty worker-local accumulator.
func NewWorkerCover() *WorkerCover {
	return &WorkerCover{actions: make(map[string]*ActionStats)}
}

// Observe records one fired transition at the given depth; fresh marks a
// newly discovered distinct state.
func (w *WorkerCover) Observe(name string, depth int, fresh bool) {
	if w == nil {
		return
	}
	a := w.last
	if a == nil || w.lastName != name {
		a = w.actions[name]
		if a == nil {
			a = &ActionStats{FirstDepth: -1, LastFreshDepth: -1}
			w.actions[name] = a
		}
		w.lastName, w.last = name, a
	}
	a.Fired++
	if a.FirstDepth < 0 || depth < a.FirstDepth {
		a.FirstDepth = depth
	}
	if fresh {
		a.Fresh++
		if depth > a.LastFreshDepth {
			a.LastFreshDepth = depth
		}
	}
}

// SymmetryHit records one successor whose canonical fingerprint differed
// from its plain fingerprint.
func (w *WorkerCover) SymmetryHit() {
	if w == nil {
		return
	}
	w.symHits++
}
