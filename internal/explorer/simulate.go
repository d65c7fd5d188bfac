package explorer

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// SimOptions configures simulation (random walk) mode — the analogue of
// TLC's simulation mode, used by conformance checking (§3.2) and constraint
// ranking (Algorithm 1).
type SimOptions struct {
	// MaxDepth bounds each walk (0 = walk until no transition is enabled).
	MaxDepth int
	// Seed makes walks reproducible; each walk i uses Seed+i.
	Seed int64
	// CheckInvariants stops a walk at the first invariant violation.
	CheckInvariants bool
	// RecordVars includes per-step variable maps in the produced traces
	// (required for conformance checking).
	RecordVars bool
	// Context, when non-nil, cancels a Walks loop cooperatively: it is
	// checked between walks, and the returned slice holds only the walks
	// completed before cancellation.
	Context context.Context
	// TrackDistinct deduplicates visited states across walks in a shared
	// fingerprint set (internal/fpset — the same structure backing the BFS
	// checker), so WalkStats.FreshStates and AggregateStats.DistinctStates
	// measure how much new ground each walk actually covers. Off by
	// default: the set grows with the number of distinct states touched.
	TrackDistinct bool

	// Progress, when set, receives periodic snapshots during Walks: Depth
	// carries the walk index, DistinctStates/Transitions the cumulative
	// steps walked, every ProgressInterval (default 5s).
	Progress obs.ProgressFunc
	// ProgressInterval is the minimum wall-clock time between reports.
	ProgressInterval time.Duration
	// Metrics, when set, receives walk counters (walks, walk_steps,
	// violations, deadlocks) and a walk_depth histogram.
	Metrics *obs.Registry
	// Tracer, when set, receives one "walk" summary event per walk.
	Tracer *obs.Tracer
	// Cover enables the coverage profiler across walks: per-action fire
	// counts (and fresh-state yield when TrackDistinct is also set),
	// retrievable via Simulator.Cover. Each walk accumulates privately and
	// merges at its end, so concurrent Walk calls stay safe.
	Cover bool
}

// WalkStats captures the per-walk data Algorithm 1 collects: branch coverage
// (distinct specification actions fired), event diversity (distinct event
// types), and exploration depth.
type WalkStats struct {
	Depth      int
	Actions    map[string]int
	EventTypes map[trace.EventType]int
	// FreshStates counts states this walk visited that no earlier walk of
	// the same Simulator had seen (0 unless SimOptions.TrackDistinct).
	FreshStates int
	// Terminal reports why the walk ended: "deadlock" (no enabled
	// transition), "max-depth", or "violation".
	Terminal string
}

// BranchCoverage is the number of distinct actions fired during the walk.
func (w *WalkStats) BranchCoverage() int { return len(w.Actions) }

// EventDiversity is the number of distinct event types fired.
func (w *WalkStats) EventDiversity() int { return len(w.EventTypes) }

// WalkResult is one random walk: its trace, stats, and any violation hit.
type WalkResult struct {
	Trace     *trace.Trace
	Stats     WalkStats
	Violation *Violation
	Elapsed   time.Duration
}

// Simulator runs seeded random walks over a specification. Its methods are
// safe for concurrent use (conformance checking shares one Simulator across
// goroutines): walk-local scratch lives on the stack, never the Simulator.
type Simulator struct {
	m    spec.Machine
	opts SimOptions

	// distinct deduplicates states across walks (nil unless TrackDistinct).
	distinct *fpset.Set

	// cover aggregates the coverage profile across walks (nil unless
	// SimOptions.Cover); coverMu serialises the per-walk merges so Walk
	// stays safe for concurrent use.
	coverMu sync.Mutex
	cover   *obs.Cover
}

// NewSimulator builds a simulator for machine m.
func NewSimulator(m spec.Machine, opts SimOptions) *Simulator {
	s := &Simulator{m: m, opts: opts}
	if opts.TrackDistinct {
		s.distinct = fpset.New(1)
	}
	if opts.Cover {
		s.cover = obs.NewCover("simulate", m.Actions())
	}
	return s
}

// Cover returns the coverage profile aggregated over every walk performed
// so far (nil unless SimOptions.Cover). The returned profile must not be
// read concurrently with in-flight walks.
func (s *Simulator) Cover() *obs.Cover { return s.cover }

// Distinct returns the number of distinct states visited across all walks
// performed so far (0 unless SimOptions.TrackDistinct).
func (s *Simulator) Distinct() int64 {
	if s.distinct == nil {
		return 0
	}
	return s.distinct.Len()
}

// Walker takes one seeded random walk a step at a time: the draws Walk
// makes, in the order it makes them, so that conformance checking can check
// each step against the implementation as it is taken (lock-step) instead
// of generating the whole walk first. A Walker is for one goroutine; Reset
// starts its next walk on the same random source and successor buffer.
//
// A walk steps in place: each Step hands the state it leaves back to the
// buffer (spec.Keep), and a later step builds a successor in it. So the
// state Reset or State returns is valid until the next Step or Reset.
type Walker struct {
	m        spec.Machine
	maxDepth int
	rng      *rand.Rand
	buf      []spec.Succ
	cur      spec.State
	// kept is the state the last Step took out of buf: cur from the walk's
	// first step on, and before it the previous walk's last state, which
	// Reset let go of. The next Step hands it back. An Init state is never
	// kept: Init promises no fresh states.
	kept     spec.State
	depth    int
	terminal string
}

// NewWalker returns a walker over m whose walks stop after maxDepth steps
// (0 = when no transition is enabled).
func NewWalker(m spec.Machine, maxDepth int) *Walker {
	return &Walker{m: m, maxDepth: maxDepth}
}

// Reset starts the walk of seed and returns its initial state.
func (w *Walker) Reset(seed int64) spec.State {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed) // the stream rand.NewSource(seed) starts
	}
	inits := w.m.Init()
	w.cur, w.depth, w.terminal = inits[w.rng.Intn(len(inits))], 0, ""
	return w.cur
}

// Step takes the walk's next step and returns its event; the state it
// reached is State. It returns false, and takes no step, once the walk is
// over (Terminal says why).
func (w *Walker) Step() (trace.Event, bool) {
	if w.maxDepth > 0 && w.depth >= w.maxDepth {
		w.terminal = "max-depth"
		return trace.Event{}, false
	}
	w.buf = w.m.AppendNext(w.cur, w.buf[:0])
	if len(w.buf) == 0 {
		w.terminal = "deadlock"
		return trace.Event{}, false
	}
	i := w.rng.Intn(len(w.buf))
	ev := w.buf[i].Event
	// The next parent must not sit in the slack; the state kept last, which
	// the walk is leaving, goes in its place.
	w.cur = spec.Keep(w.buf, i, w.kept)
	w.kept = w.cur
	w.depth++
	return ev, true
}

// State is the state the walk is in, valid until the next Step or Reset.
func (w *Walker) State() spec.State { return w.cur }

// Depth is the number of steps taken.
func (w *Walker) Depth() int { return w.depth }

// Terminal is why the walk ended — "deadlock" (no enabled transition) or
// "max-depth" — or "" while it goes on.
func (w *Walker) Terminal() string { return w.terminal }

// Walk performs a single random walk with the given seed.
func (s *Simulator) Walk(seed int64) *WalkResult {
	start := time.Now()
	invs := s.m.Invariants()
	w := NewWalker(s.m, s.opts.MaxDepth)
	cur := w.Reset(seed)

	res := &WalkResult{
		Trace: &trace.Trace{System: s.m.Name()},
		Stats: WalkStats{
			Actions:    make(map[string]int),
			EventTypes: make(map[trace.EventType]int),
		},
	}
	if s.opts.RecordVars {
		res.Trace.Init = spec.VarsOf(cur)
	}
	if s.distinct != nil && s.distinct.Insert(cur.Fingerprint(), 0, 0) {
		res.Stats.FreshStates++
	}

	// wc is the walk-local coverage accumulator (nil calls no-op): walks may
	// run concurrently, so the shared profile is only touched once, under
	// lock, when the walk ends.
	var wc *obs.WorkerCover
	if s.cover != nil {
		wc = obs.NewWorkerCover()
	}

	for {
		ev, ok := w.Step()
		if !ok {
			res.Stats.Terminal = w.Terminal()
			break
		}
		cur = w.State()
		res.Stats.Depth++
		res.Stats.Actions[ev.Action]++
		res.Stats.EventTypes[ev.Type]++

		fresh := s.distinct != nil && s.distinct.Insert(cur.Fingerprint(), 0, int32(res.Stats.Depth))
		if fresh {
			res.Stats.FreshStates++
		}
		wc.Observe(ev.Action, res.Stats.Depth, fresh)
		step := trace.Step{Event: ev, Fingerprint: cur.Fingerprint()}
		if s.opts.RecordVars {
			step.Vars = spec.VarsOf(cur)
		}
		res.Trace.Steps = append(res.Trace.Steps, step)

		if s.opts.CheckInvariants {
			if v := checkInvariants(invs, cur, res.Stats.Depth, 0); v != nil {
				v.Trace = res.Trace
				res.Violation = v
				res.Stats.Terminal = "violation"
				break
			}
		}
	}
	if s.cover != nil {
		s.coverMu.Lock()
		s.cover.MergeWorker(wc)
		s.coverMu.Unlock()
	}
	res.Elapsed = time.Since(start)
	return res
}

// Walks performs n seeded walks (seeds Seed..Seed+n-1) and returns them,
// reporting progress and metrics on the configured cadence.
func (s *Simulator) Walks(n int) []*WalkResult {
	reporter := obs.NewReporter(s.opts.Progress, s.opts.ProgressInterval)
	reporter.Tracer = s.opts.Tracer
	var walkDepth *obs.Histogram
	if s.opts.Metrics != nil {
		walkDepth = s.opts.Metrics.Histogram("walk_depth", []int64{5, 10, 20, 50, 100, 500})
	}

	// n is a request (10^8 walks under a one-second deadline), not a size.
	var out []*WalkResult
	steps := int64(0)
	for i := 0; i < n; i++ {
		if s.opts.Context != nil && s.opts.Context.Err() != nil {
			break
		}
		w := s.Walk(s.opts.Seed + int64(i))
		out = append(out, w)
		steps += int64(w.Stats.Depth)

		if reg := s.opts.Metrics; reg != nil {
			reg.Counter("walks").Inc()
			reg.Counter("walk_steps").Add(int64(w.Stats.Depth))
			walkDepth.Observe(int64(w.Stats.Depth))
			switch w.Stats.Terminal {
			case "violation":
				reg.Counter("violations").Inc()
			case "deadlock":
				reg.Counter("deadlocks").Inc()
			}
		}
		if s.opts.Tracer != nil {
			s.opts.Tracer.Emit(obs.Event{
				Layer: "spec", Kind: "walk", Node: -1,
				Detail: map[string]string{
					"walk":     strconv.Itoa(i),
					"seed":     strconv.FormatInt(s.opts.Seed+int64(i), 10),
					"depth":    strconv.Itoa(w.Stats.Depth),
					"terminal": w.Stats.Terminal,
					"actions":  strconv.Itoa(w.Stats.BranchCoverage()),
				},
			})
		}
		reporter.Maybe(obs.Progress{
			DistinctStates: int(steps),
			Transitions:    steps,
			Depth:          i + 1,
		})
	}
	if s.opts.Progress != nil {
		reporter.Emit(obs.Progress{DistinctStates: int(steps), Transitions: steps, Depth: len(out), Final: true})
	}
	return out
}

// AggregateStats merges per-walk stats: union of branch coverage and event
// diversity, maximum depth — the data Algorithm 1 sorts constraints by.
type AggregateStats struct {
	Walks          int
	BranchCoverage int
	EventDiversity int
	MaxDepth       int
	MeanDepth      float64
	Violations     int
	// DistinctStates is the number of distinct states touched across all
	// walks (0 unless SimOptions.TrackDistinct; each fresh state is counted
	// by exactly one walk, so the per-walk FreshStates sum to it).
	DistinctStates int
	TotalElapsed   time.Duration
}

// Aggregate folds walk results into aggregate statistics.
func Aggregate(walks []*WalkResult) AggregateStats {
	agg := AggregateStats{Walks: len(walks)}
	actions := make(map[string]struct{})
	events := make(map[trace.EventType]struct{})
	total := 0
	for _, w := range walks {
		for a := range w.Stats.Actions {
			actions[a] = struct{}{}
		}
		for e := range w.Stats.EventTypes {
			events[e] = struct{}{}
		}
		if w.Stats.Depth > agg.MaxDepth {
			agg.MaxDepth = w.Stats.Depth
		}
		agg.DistinctStates += w.Stats.FreshStates
		total += w.Stats.Depth
		if w.Violation != nil {
			agg.Violations++
		}
		agg.TotalElapsed += w.Elapsed
	}
	agg.BranchCoverage = len(actions)
	agg.EventDiversity = len(events)
	if len(walks) > 0 {
		agg.MeanDepth = float64(total) / float64(len(walks))
	}
	return agg
}
