package explorer

import (
	"time"

	"github.com/sandtable-go/sandtable/internal/spec"
)

// StatelessOptions configures the stateless search ablation: bounded DFS
// with no visited set, the exploration discipline implementation-level
// DMCKs are forced into (§2.1: the stateless approach "cannot distinguish
// redundant states, leading to a more severe explosion"). It is DFS, not
// Checker with dedup switched off, because BFS without a visited set holds
// a whole exponentially wide level in memory.
type StatelessOptions struct {
	MaxDepth int
	Deadline time.Duration
}

// StatelessResult reports how much work the stateless discipline performed.
type StatelessResult struct {
	Visits     int64 // states visited, duplicates included
	Executions int64 // complete root-to-leaf executions
	Violations int
	Duration   time.Duration
	Exhausted  bool
}

// RedundancyFactor estimates wasted work: visits per distinct state, given
// the distinct-state count measured by a stateful run of the same model.
func (r *StatelessResult) RedundancyFactor(distinct int) float64 {
	if distinct == 0 {
		return 0
	}
	return float64(r.Visits) / float64(distinct)
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
	// Each DFS depth owns one reusable successor buffer: a parent is still
	// iterating its buffer while its children enumerate, so buffers cannot
	// be shared across levels, but within a level every sibling reuses the
	// same one. No spec.Keep is needed either: the parent at depth d sits in
	// the depth d-1 buffer, and a successor is dead once its subtree returns.
	var bufs [][]spec.Succ

	var dfs func(s spec.State, depth int) bool // returns false to abort
	dfs = func(s spec.State, depth int) bool {
		res.Visits++
		// The deadline is read every 4096 visits so the hot recursion stays
		// free of clock reads.
		if res.Visits%4096 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return false
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
	return res
}
