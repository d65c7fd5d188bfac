// Package conformance implements SandTable's iterative conformance checking
// (§3.2): it randomly explores the specification state space, replays each
// trace against the implementation under the deterministic execution
// engine, and compares the specification variables with the implementation
// state after every event. Any discrepancy — a diverging variable, a
// non-executable command, or an implementation crash — is reported with the
// event prefix that produced it, so the user can fix the specification (or
// discover a by-product implementation bug) and rerun until a full round
// passes quietly.
package conformance

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Target couples a specification machine with an implementation cluster
// factory — everything needed to cross-check the two levels.
type Target struct {
	Machine spec.Machine
	// NewCluster boots a fresh implementation cluster for one trace replay
	// (stateless initialisation, as the paper's engine does per trace).
	NewCluster func(seed int64) (*engine.Cluster, error)
	// Observe overrides implementation state collection (defaults to
	// Cluster.ObserveInto: node APIs plus the proxy's network variables).
	Observe func(*engine.Cluster) (map[string]string, error)
	// ResourceCheck, when set, runs after every event and can flag
	// general correctness bugs (e.g. the CRaft#6 buffer leak).
	ResourceCheck func(*engine.Cluster) error
	// IgnoreVars excludes variable keys from comparison.
	IgnoreVars []string
}

// Options tunes a conformance run.
type Options struct {
	// Walks is the number of random specification traces to replay.
	Walks int
	// WalkDepth bounds each trace (0 = until deadlock).
	WalkDepth int
	// Seed makes the run reproducible.
	Seed int64
	// Workers is the number of replay workers (<= 1 means one). Each walk
	// is seeded by its index and replayed on a fresh cluster, so walks are
	// independent; workers claim walk indices in order and the first
	// discrepancy (lowest walk index) wins, so the Report — Walks,
	// EventsChecked, and the Discrepancy's walk, seed, step, and diff keys —
	// is identical for every worker count. Only scheduling-dependent side
	// channels vary: tracer event interleaving (walk-start markers carry a
	// "worker" detail), per-worker conformance.worker[i].walks counters,
	// and replay.*/engine.* metric totals, which may include walks past the
	// first discrepancy that other workers had already claimed.
	Workers int
	// Timeout stops the run early (the paper's stopping condition is a
	// period with no discrepancies, e.g. 30 minutes; tests use seconds).
	Timeout time.Duration
	// Progress, when set, receives a snapshot after every replayed walk
	// (Depth = walks completed, DistinctStates/Transitions = events
	// checked). Cadence as in explorer.Options (default 5s).
	Progress obs.ProgressFunc
	// ProgressInterval is the minimum wall-clock time between reports.
	ProgressInterval time.Duration
	// Metrics, when set, receives conformance.walks / conformance.events
	// counters and is installed on every replay cluster (engine.* and
	// vnet.* counters accumulate across walks).
	Metrics *obs.Registry
	// Tracer, when set, records every engine/vnet/replay event of every
	// replayed walk, separated by "walk-start" markers.
	Tracer *obs.Tracer
}

// DefaultOptions is a short conformance round.
func DefaultOptions() Options { return Options{Walks: 100, WalkDepth: 30, Seed: 1} }

// Discrepancy is one detected spec/impl divergence.
type Discrepancy struct {
	Walk  int
	Seed  int64
	Step  *replay.StepResult
	Trace *trace.Trace
}

// Error renders the discrepancy as a one-line diagnostic naming the walk,
// its seed, and the diverging step.
func (d *Discrepancy) Error() string {
	return fmt.Sprintf("conformance: walk %d (seed %d): %s", d.Walk, d.Seed, d.Step.Describe())
}

// Report summarises a conformance round.
type Report struct {
	Walks         int
	EventsChecked int
	Duration      time.Duration
	// Discrepancy is the first divergence found (nil = the round passed).
	Discrepancy *Discrepancy
}

// Passed reports whether the round found no discrepancies.
func (r *Report) Passed() bool { return r.Discrepancy == nil }

// Run performs one conformance round: Walks random traces, each replayed
// from a fresh cluster by a pool of Options.Workers workers, stopping at the
// first discrepancy. The report is the same at every worker count (see
// Options.Workers).
func Run(t *Target, opts Options) (*Report, error) {
	return RunContext(context.Background(), t, opts)
}

// RunContext is Run with cooperative cancellation: once ctx is done no
// further walk starts, and the report covers the walks completed by then —
// the same early stop as Options.Timeout.
func RunContext(ctx context.Context, t *Target, opts Options) (*Report, error) {
	if opts.Walks <= 0 {
		opts.Walks = DefaultOptions().Walks
	}
	start := time.Now()
	expired := func() bool {
		return ctx.Err() != nil || opts.Timeout > 0 && time.Since(start) > opts.Timeout
	}
	sim := explorer.NewSimulator(t.Machine, explorer.SimOptions{
		MaxDepth:   opts.WalkDepth,
		Seed:       opts.Seed,
		RecordVars: true,
	})
	reporter := obs.NewReporter(opts.Progress, opts.ProgressInterval)

	opts.Workers = max(opts.Workers, 1)
	rep, err := runWalks(t, sim, reporter, opts, expired)
	if err != nil {
		return nil, err
	}
	rep.Duration = time.Since(start)
	if opts.Progress != nil {
		reporter.Emit(obs.Progress{
			DistinctStates: rep.EventsChecked,
			Transitions:    int64(rep.EventsChecked),
			Depth:          rep.Walks,
			Final:          true,
		})
	}
	return rep, nil
}

// walkResult is one walk's outcome, filled in by whichever worker claimed
// the walk. Only a diverging walk keeps its trace (the report carries it); a
// passing one is dropped as soon as it has replayed, so a round holds no
// more than the walks in flight.
type walkResult struct {
	steps int
	div   *replay.StepResult
	tr    *trace.Trace
	err   error
}

// runWalks replays walks on opts.Workers goroutines, one or more.
// Determinism scheme: an atomic counter hands out walk indices in order; a
// worker never abandons a claimed walk (except when the walk index is
// already past the lowest known discrepancy, which an in-order replay would
// never reach); and each finished walk is folded into the report only once
// every lower-numbered walk has been, stopping at the first discrepancy or
// error. Because the lowest-discrepancy watermark only decreases, every walk
// below the final discrepancy index is guaranteed to have been executed, so
// the fold yields the Walks / EventsChecked / Discrepancy of replaying the
// walks one after another, and it holds only the walks that finished ahead
// of a slower one, never one slot per walk of the round.
func runWalks(t *Target, sim *explorer.Simulator, reporter *obs.Reporter, opts Options, expired func() bool) (*Report, error) {
	var (
		next  atomic.Int64
		found atomic.Int64 // lowest walk index with a discrepancy or error
		wg    sync.WaitGroup

		mu      sync.Mutex // guards the fold: everything below
		rep     = &Report{}
		ahead   = map[int]walkResult{} // finished walks past rep.Walks
		halted  bool                   // the fold reached a discrepancy or error
		failure error
	)
	found.Store(int64(opts.Walks))
	opts.Metrics.Gauge("conformance.workers").Set(int64(opts.Workers))
	walksCtr := opts.Metrics.Counter("conformance.walks")
	eventsCtr := opts.Metrics.Counter("conformance.events")

	lower := func(w int) {
		for {
			cur := found.Load()
			if int64(w) >= cur || found.CompareAndSwap(cur, int64(w)) {
				return
			}
		}
	}
	// finish records walk w's outcome and folds the in-order prefix.
	finish := func(w int, r walkResult) {
		if r.err != nil || r.div != nil {
			lower(w)
		}
		mu.Lock()
		defer mu.Unlock()
		if halted {
			return
		}
		ahead[w] = r
		for {
			w := rep.Walks
			r, ok := ahead[w]
			if !ok {
				return
			}
			delete(ahead, w)
			if r.err != nil {
				failure, halted = r.err, true
				return
			}
			rep.Walks++
			walksCtr.Inc()
			rep.EventsChecked += r.steps
			eventsCtr.Add(int64(r.steps))
			if r.div != nil {
				rep.Discrepancy = &Discrepancy{Walk: w, Seed: opts.Seed + int64(w), Step: r.div, Trace: r.tr}
				halted = true
				return
			}
			reporter.Maybe(obs.Progress{
				DistinctStates: rep.EventsChecked,
				Transitions:    int64(rep.EventsChecked),
				Depth:          rep.Walks,
			})
		}
	}

	for wk := 0; wk < opts.Workers; wk++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			workerCtr := opts.Metrics.Counter(fmt.Sprintf("conformance.worker[%d].walks", worker))
			for {
				w := int(next.Add(1) - 1)
				if w >= opts.Walks || int64(w) > found.Load() {
					return
				}
				if expired() {
					return
				}
				seed := opts.Seed + int64(w)
				walk := sim.Walk(seed)
				cluster, err := t.NewCluster(seed)
				if err != nil {
					finish(w, walkResult{err: fmt.Errorf("conformance: boot cluster: %w", err)})
					continue
				}
				if opts.Tracer != nil {
					opts.Tracer.Emit(obs.Event{
						Layer: "conformance", Kind: "walk-start", Node: -1,
						Detail: map[string]string{
							"walk": strconv.Itoa(w), "seed": strconv.FormatInt(seed, 10),
							"depth": strconv.Itoa(walk.Stats.Depth), "worker": strconv.Itoa(worker),
						},
					})
				}
				res, err := runOne(t, walk.Trace, cluster, opts.Tracer, opts.Metrics)
				if err != nil {
					finish(w, walkResult{err: err})
					continue
				}
				workerCtr.Inc()
				r := walkResult{steps: res.Steps}
				if res.Divergence != nil {
					r.div, r.tr = res.Divergence, walk.Trace
				}
				finish(w, r)
			}
		}(wk)
	}
	wg.Wait()
	if failure != nil {
		return nil, failure
	}
	return rep, nil
}

func runOne(t *Target, tr *trace.Trace, c *engine.Cluster, tracer *obs.Tracer, metrics *obs.Registry) (*replay.Result, error) {
	opts := replay.Options{
		CompareEachStep: true,
		IgnoreVars:      t.IgnoreVars,
		Observe:         t.Observe,
		Tracer:          tracer,
		Metrics:         metrics,
	}
	if t.ResourceCheck != nil {
		// The check runs after every executed event via the replay-layer
		// hook, so the walk stays a single replay: exactly one verdict
		// event, step indices relative to the walk trace, and replay.steps
		// metrics identical to runs without a resource check.
		opts.AfterStep = func(step int, c *engine.Cluster) error {
			return t.ResourceCheck(c)
		}
	}
	return replay.Run(tr, c, opts)
}
