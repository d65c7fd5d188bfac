package integrations

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
)

// oracleResult is what the reference search and a production run are compared
// on.
type oracleResult struct {
	distinct, maxDepth   int
	transitions, symHits int64
	violations           []string
}

// oracleBFS is the reference the production checker is held to. It shares no
// code with it: no worker pool, no fingerprint set, no AppendNext, no
// OrbitFingerprint — a map, plain Next, and the orbit minimum by brute force
// (Permute every state under every permutation and fingerprint the result).
// The one thing it copies is the documented level order, ascending canonical
// fingerprint with the first member seen standing for its orbit: for an
// equivariant machine the order cannot matter, and for one that is not it is
// what makes a single-worker production run comparable at all.
func oracleBFS(m spec.Machine, symmetry bool, maxDepth int) oracleResult {
	var perms [][]int
	if symmetry {
		var rec func(p []int, k int)
		rec = func(p []int, k int) {
			if k == len(p) {
				perms = append(perms, slices.Clone(p))
			}
			for i := k; i < len(p); i++ {
				p[k], p[i] = p[i], p[k]
				rec(p, k+1)
				p[k], p[i] = p[i], p[k]
			}
		}
		id := make([]int, m.NumNodes())
		for i := range id {
			id[i] = i
		}
		rec(id, 0)
	}
	type node struct {
		s  spec.State
		fp uint64
	}
	var res oracleResult
	seen := map[uint64]bool{}
	var next []node
	reach := func(s spec.State, depth int) {
		plain := s.Fingerprint()
		fp := plain
		for _, p := range perms {
			fp = min(fp, m.Permute(s, p).Fingerprint())
		}
		if fp != plain && depth > 0 {
			res.symHits++
		}
		if seen[fp] {
			return
		}
		seen[fp] = true
		next = append(next, node{s, fp})
		for _, inv := range m.Invariants() {
			if err := inv.Check(s); err != nil {
				res.violations = append(res.violations, fmt.Sprintf("depth %d %s: %v", depth, inv.Name, err))
				break
			}
		}
	}
	for _, s := range m.Init() {
		reach(s, 0)
	}
	for depth := 0; len(next) > 0; depth++ {
		res.maxDepth = depth
		if depth >= maxDepth {
			break
		}
		level := next
		next = nil
		slices.SortFunc(level, func(a, b node) int {
			if a.fp < b.fp {
				return -1
			}
			return 1
		})
		for _, n := range level {
			for _, su := range m.Next(n.s) {
				res.transitions++
				reach(su.State, depth+1)
			}
		}
	}
	res.distinct = len(seen)
	slices.Sort(res.violations)
	return res
}

// TestProductionMatchesIndependentOracle holds Checker.Run to oracleBFS on
// every integrated system, fixed and with every defect on, and on the toy
// model: the distinct-state count, the depth reached and the violation set
// must agree with symmetry off and on, at one worker and at two; so must
// the transition count, and at one worker the symmetry-hit count, and the
// two worker counts must reconstruct the same counterexamples. An
// OrbitFingerprint that disagreed with the brute-force minimum would split or
// merge orbits and move the distinct count.
//
// equivariant is what spectest.FindNextAsymmetry says of the machine over
// this table's walks, asserted row by row: a row pinned false must still
// yield a witness, which is logged. zabkeeper breaks vote ties on node id
// (zabkeeper's TestContract); the all-defects builds pinned false raise a
// flag whose message names nodes (raftbase's TestContract). Under symmetry
// which member stands for an orbit is decided by insertion order, which two
// workers race for, and without equivariance the members' successors differ —
// so those rows run symmetry at one worker only.
func TestProductionMatchesIndependentOracle(t *testing.T) {
	type row struct {
		name        string
		m           func() spec.Machine
		depth       int
		equivariant bool
	}
	rows := []row{
		{"toy", func() spec.Machine { return &toy.LostUpdate{N: 5} }, 12, true},
	}
	pinned := map[string]bool{
		"zabkeeper": true, "zabkeeper-buggy": true,
		"asyncraft-buggy": true, "craft-buggy": true, "daosraft-buggy": true,
	}
	depths := map[string]int{"asyncraft": 5, "gosyncobj": 9, "redisraft": 9, "craft": 7}
	for _, sys := range All() {
		for _, build := range []struct {
			suffix string
			bugs   bugdb.Set
		}{{"", bugdb.NoBugs()}, {"-buggy", bugdb.AllBugs(sys.Name)}} {
			name := sys.Name + build.suffix
			depth, ok := depths[sys.Name]
			if !ok {
				depth = 6
			}
			rows = append(rows, row{name, func() spec.Machine {
				return sys.NewMachine(sys.DefaultConfig, sys.DefaultBudget, build.bugs)
			}, depth, !pinned[name]})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			if r.equivariant {
				spectest.AssertNextEquivariant(t, r.m(), 40, 60, 3)
			} else {
				spectest.AssertNextAsymmetric(t, r.m(), 40, 60, 3)
			}
			for _, symmetry := range []bool{false, true} {
				want := oracleBFS(r.m(), symmetry, r.depth)
				if want.distinct < 50 {
					t.Fatalf("symmetry=%v: oracle reached only %d states; the row proves nothing", symmetry, want.distinct)
				}
				var serialTraces []string
				for _, workers := range []int{1, 2} {
					if workers > 1 && symmetry && !r.equivariant {
						continue
					}
					res := explorer.NewChecker(r.m(), explorer.Options{
						Workers: workers, Symmetry: symmetry, MaxDepth: r.depth, Cover: true, RecordVars: true,
					}).Run()
					// Counterexamples are rebuilt from the initial states
					// along canonical fingerprints, so they do not depend on
					// which orbit members the workers stored.
					var traces []string
					for _, v := range res.Violations {
						traces = append(traces, v.Trace.Format(true))
					}
					if workers == 1 {
						serialTraces = traces
					} else if !slices.Equal(traces, serialTraces) {
						t.Errorf("symmetry=%v workers=%d: counterexample traces differ from the single-worker run's", symmetry, workers)
					}
					got := oracleResult{
						distinct: res.DistinctStates, maxDepth: res.MaxDepth,
						transitions: res.Transitions, symHits: res.Cover.SymmetryHits,
					}
					for _, v := range res.Violations {
						got.violations = append(got.violations, fmt.Sprintf("depth %d %s: %v", v.Depth, v.Invariant, v.Err))
					}
					slices.Sort(got.violations)
					if workers > 1 {
						got.symHits = want.symHits // depends on which orbit members were stored
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("symmetry=%v workers=%d: production %+v\noracle %+v", symmetry, workers, got, want)
					}
				}
				t.Logf("symmetry=%v: %d states, %d transitions, %d violations, %d symmetry hits",
					symmetry, want.distinct, want.transitions, len(want.violations), want.symHits)
			}
		})
	}
}
