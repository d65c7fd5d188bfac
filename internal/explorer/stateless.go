package explorer

import (
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// StatelessOptions configures the stateless search ablation: bounded DFS
// with no visited set, the exploration discipline implementation-level
// DMCKs are forced into (§2.1: the stateless approach "cannot distinguish
// redundant states, leading to a more severe explosion").
type StatelessOptions struct {
	MaxDepth  int
	Deadline  time.Duration
	MaxVisits int64 // stop after this many state visits (0 = off)

	// TrackDistinct additionally counts *distinct* states in a fingerprint
	// set (internal/fpset). The set never prunes the search — that would
	// make it stateful — it only measures the redundancy, so
	// StatelessResult.SelfRedundancy works without a separate stateful run
	// of the same model.
	TrackDistinct bool

	// Progress, when set, receives periodic snapshots: DistinctStates and
	// Transitions both carry the raw visit count (the stateless discipline
	// cannot tell duplicates apart — that is its defining deficiency), and
	// Depth carries the current DFS depth. Cadence as in Options.
	Progress obs.ProgressFunc
	// ProgressInterval is the minimum wall-clock time between reports.
	ProgressInterval time.Duration
	// ProgressStates reports every N visits.
	ProgressStates int
	// Metrics, when set, receives live visit/execution counters.
	Metrics *obs.Registry
	// Tracer, when set, receives one "stateless" summary event when the
	// search ends (visits, executions, distinct states) — the ablation's
	// counterpart of the BFS checker's per-level events.
	Tracer *obs.Tracer
}

// StatelessResult reports how much work the stateless discipline performed.
type StatelessResult struct {
	Visits     int64 // states visited, duplicates included
	Executions int64 // complete root-to-leaf executions
	Violations int
	// Distinct is the number of distinct states among the visits (0 unless
	// StatelessOptions.TrackDistinct).
	Distinct  int64
	Duration  time.Duration
	Exhausted bool
}

// RedundancyFactor estimates wasted work: visits per distinct state, given
// the distinct-state count measured by a stateful run of the same model.
func (r *StatelessResult) RedundancyFactor(distinct int) float64 {
	if distinct == 0 {
		return 0
	}
	return float64(r.Visits) / float64(distinct)
}

// SelfRedundancy is RedundancyFactor against the run's own distinct-state
// count (requires StatelessOptions.TrackDistinct).
func (r *StatelessResult) SelfRedundancy() float64 {
	return r.RedundancyFactor(int(r.Distinct))
}

// StatelessSearch explores the machine by depth-bounded DFS without state
// deduplication. It exists to make the paper's premise measurable: the same
// bounded space costs vastly more transitions without statefulness.
func StatelessSearch(m spec.Machine, opts StatelessOptions) *StatelessResult {
	start := time.Now()
	res := &StatelessResult{}
	invs := m.Invariants()
	deadline := time.Time{}
	if opts.Deadline > 0 {
		deadline = start.Add(opts.Deadline)
	}
	interval := opts.ProgressInterval
	if opts.Progress != nil && interval == 0 && opts.ProgressStates == 0 {
		interval = 5 * time.Second
	}
	reporter := obs.NewReporter(opts.Progress, interval, opts.ProgressStates)
	var visitsGauge, execGauge *obs.Gauge
	if opts.Metrics != nil {
		visitsGauge = opts.Metrics.Gauge("stateless_visits")
		execGauge = opts.Metrics.Gauge("stateless_executions")
	}
	var distinct *fpset.Set
	if opts.TrackDistinct {
		distinct = fpset.New(1)
	}
	// Each DFS depth owns one reusable successor buffer: a parent is still
	// iterating its buffer while its children enumerate, so buffers cannot
	// be shared across levels, but within a level every sibling reuses the
	// same one. No spec.Keep is needed either: the parent at depth d sits in
	// the depth d-1 buffer, and a successor is dead once its subtree returns.
	var bufs [][]spec.Succ

	var dfs func(s spec.State, depth int) bool // returns false to abort
	dfs = func(s spec.State, depth int) bool {
		res.Visits++
		if distinct != nil {
			distinct.Insert(s.Fingerprint(), 0, int32(depth))
		}
		if opts.MaxVisits > 0 && res.Visits >= opts.MaxVisits {
			return false
		}
		// Observation points share the 4096-visit cadence of the deadline
		// check so the hot recursion stays free of clock reads.
		if res.Visits%4096 == 0 {
			visitsGauge.Set(res.Visits)
			execGauge.Set(res.Executions)
			reporter.Maybe(obs.Progress{
				DistinctStates: int(res.Visits),
				Transitions:    res.Visits,
				Depth:          depth,
			})
			if !deadline.IsZero() && time.Now().After(deadline) {
				return false
			}
		}
		if v := checkInvariants(invs, s, depth, 0); v != nil {
			res.Violations++
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			res.Executions++
			return true
		}
		for depth >= len(bufs) {
			bufs = append(bufs, nil)
		}
		bufs[depth] = m.AppendNext(s, bufs[depth][:0])
		succs := bufs[depth]
		if len(succs) == 0 {
			res.Executions++
			return true
		}
		for i := range succs {
			if !dfs(succs[i].State, depth+1) {
				return false
			}
		}
		return true
	}

	res.Exhausted = true
	for _, s := range m.Init() {
		if !dfs(s, 0) {
			res.Exhausted = false
			break
		}
	}
	res.Duration = time.Since(start)
	if distinct != nil {
		res.Distinct = distinct.Len()
	}
	visitsGauge.Set(res.Visits)
	execGauge.Set(res.Executions)
	if opts.Progress != nil {
		reporter.Emit(obs.Progress{DistinctStates: int(res.Visits), Transitions: res.Visits, Final: true})
	}
	opts.Tracer.Emit(obs.Event{
		Layer: "spec", Kind: "stateless", Node: -1,
		Detail: map[string]string{
			"visits":     strconv.FormatInt(res.Visits, 10),
			"executions": strconv.FormatInt(res.Executions, 10),
			"distinct":   strconv.FormatInt(res.Distinct, 10),
			"violations": strconv.Itoa(res.Violations),
			"exhausted":  strconv.FormatBool(res.Exhausted),
		},
	})
	return res
}
