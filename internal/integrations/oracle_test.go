package integrations

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// oracleResult is what the reference search and every deployment shape are
// compared on: the result, the symmetry-hit count, and a projection of the
// coverage profile — per action the successors it generated and the fresh
// states it was credited with, per level what it expanded and found.
type oracleResult struct {
	distinct, maxDepth          int
	transitions, dedup, symHits int64
	violations                  []string
	actions                     map[string][2]int64 // fired, fresh
	levels                      []oracleLevel
}

// oracleLevel profiles one level: depth 0 is the distinct initial states;
// depth d > 0 is the expansion of level d-1 (its frontier) into level d.
type oracleLevel struct {
	depth, frontier, fresh, violations int
	transitions, dedup                 int64
}

// render writes out what a shape is compared on. A resumed run is compared
// on its result only (its profile covers the continuation); where canonical
// is false, per-action fresh credit and the symmetry-hit count are left out
// too: one process's workers race for which action reaches a state first and
// which orbit member is stored.
func (r oracleResult) render(resumed, canonical bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "distinct=%d transitions=%d dedup=%d maxdepth=%d\n", r.distinct, r.transitions, r.dedup, r.maxDepth)
	for _, v := range r.violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	if resumed {
		return b.String()
	}
	if canonical {
		fmt.Fprintf(&b, "symhits=%d\n", r.symHits)
	}
	for _, name := range slices.Sorted(maps.Keys(r.actions)) {
		a := r.actions[name]
		fmt.Fprintf(&b, "action %s fired=%d", name, a[0])
		if canonical {
			fmt.Fprintf(&b, " fresh=%d", a[1])
		}
		b.WriteString("\n")
	}
	for _, l := range r.levels {
		fmt.Fprintf(&b, "level %+v\n", l)
	}
	return b.String()
}

// oracleBFS is the reference every shape is held to. It shares no code with
// the engine: no worker pool, no fingerprint set, no AppendNext, no
// OrbitFingerprint, no coverage profiler — a map, plain Next, and the orbit
// minimum by brute force (Permute every state under every permutation and
// fingerprint the result). The one thing it copies is the documented level
// order, ascending canonical fingerprint with the first member seen standing
// for its orbit and taking the fresh credit: for an equivariant machine the
// order cannot matter, and for one that is not it is what makes a
// single-worker run comparable at all.
func oracleBFS(m spec.Machine, symmetry bool, maxDepth int) oracleResult {
	var perms [][]int // every permutation of the nodes, by insertion
	if symmetry {
		perms = [][]int{{}}
		for n := range m.NumNodes() {
			var grown [][]int
			for _, p := range perms {
				for i := range len(p) + 1 {
					grown = append(grown, slices.Insert(slices.Clone(p), i, n))
				}
			}
			perms = grown
		}
	}
	type node struct {
		s  spec.State
		fp uint64
	}
	res := oracleResult{actions: map[string][2]int64{}}
	seen := map[uint64]bool{}
	var next []node
	// reach records s at depth and reports whether it is fresh.
	reach := func(s spec.State, depth int) bool {
		plain := s.Fingerprint()
		fp := plain
		for _, p := range perms {
			fp = min(fp, m.Permute(s, p).Fingerprint())
		}
		if fp != plain && depth > 0 {
			res.symHits++
		}
		if seen[fp] {
			res.dedup++
			return false
		}
		seen[fp] = true
		next = append(next, node{s, fp})
		for _, inv := range m.Invariants() {
			if err := inv.Check(s); err != nil {
				res.violations = append(res.violations, fmt.Sprintf("depth %d %s: %v", depth, inv.Name, err))
				break
			}
		}
		return true
	}
	for _, s := range m.Init() {
		reach(s, 0)
	}
	res.levels = []oracleLevel{{frontier: len(next), fresh: len(next)}}
	for depth := 0; len(next) > 0; depth++ {
		res.maxDepth = depth
		if depth >= maxDepth {
			break
		}
		level := next
		next = nil
		slices.SortFunc(level, func(a, b node) int { return cmp.Compare(a.fp, b.fp) })
		l := oracleLevel{depth: depth + 1, frontier: len(level), violations: -len(res.violations), dedup: -res.dedup}
		for _, n := range level {
			for _, su := range m.Next(n.s) {
				l.transitions++
				a := res.actions[su.Event.Action]
				a[0]++
				if reach(su.State, depth+1) {
					a[1]++
				}
				res.actions[su.Event.Action] = a
			}
		}
		l.fresh, l.violations, l.dedup = len(next), l.violations+len(res.violations), l.dedup+res.dedup
		res.transitions += l.transitions
		res.levels = append(res.levels, l)
	}
	res.distinct = len(seen)
	slices.Sort(res.violations)
	return res
}

// project renders a run in the oracle's terms.
func project(res *explorer.Result) oracleResult {
	r := oracleResult{distinct: res.DistinctStates, maxDepth: res.MaxDepth, transitions: res.Transitions, dedup: res.DedupHits}
	for _, v := range res.Violations {
		r.violations = append(r.violations, fmt.Sprintf("depth %d %s: %v", v.Depth, v.Invariant, v.Err))
	}
	slices.Sort(r.violations)
	if c := res.Cover; c != nil {
		r.symHits, r.actions = c.SymmetryHits, map[string][2]int64{}
		for name, a := range c.Actions {
			r.actions[name] = [2]int64{a.Fired, a.Fresh}
		}
		for _, l := range c.Levels {
			r.levels = append(r.levels, oracleLevel{l.Depth, l.Frontier, l.Fresh, l.Violations, l.Transitions, l.Dedup})
		}
	}
	return r
}

// oracleRow is one machine the harness checks, to a depth bound. equivariant
// is what spectest.FindNextAsymmetry says of it: zabkeeper breaks vote ties
// on node id (zabkeeper's TestContract); the all-defects builds pinned false
// raise a flag whose message names nodes (raftbase's TestContract).
type oracleRow struct {
	name        string
	m           func() spec.Machine
	depth       int
	equivariant bool

	law  sync.Once
	refs [2]struct { // by symmetry, computed once
		once sync.Once
		want oracleResult
		// traces are the counterexamples of the solo single-worker in-RAM run.
		traces []string
	}
}

// oracleRows are the toy and every integrated system, fixed and with every
// defect on. gosyncobj goes to depth 11: its level 10 (16,577 states) is
// wider than one expansion block, so a stop there can land mid-level.
var oracleRows = sync.OnceValue(func() []*oracleRow {
	rows := []*oracleRow{{name: "toy", m: func() spec.Machine { return &toy.LostUpdate{N: 5} }, depth: 12, equivariant: true}}
	pinned := map[string]bool{
		"zabkeeper": true, "zabkeeper-buggy": true,
		"asyncraft-buggy": true, "craft-buggy": true, "daosraft-buggy": true,
	}
	depths := map[string]int{"asyncraft": 5, "gosyncobj": 11, "redisraft": 9, "craft": 7}
	for _, sys := range All() {
		for _, build := range []struct {
			suffix string
			bugs   bugdb.Set
		}{{"", bugdb.NoBugs()}, {"-buggy", bugdb.AllBugs(sys.Name)}} {
			name := sys.Name + build.suffix
			rows = append(rows, &oracleRow{name: name, m: func() spec.Machine {
				return sys.NewMachine(sys.DefaultConfig, sys.DefaultBudget, build.bugs)
			}, depth: cmp.Or(depths[sys.Name], 6), equivariant: !pinned[name]})
		}
	}
	return rows
})

// reference returns the oracle's answer for the row and the reference
// counterexamples, checking the row's equivariance pin on first use.
func (r *oracleRow) reference(t *testing.T, symmetry bool) (oracleResult, []string) {
	r.law.Do(func() {
		if r.equivariant {
			spectest.AssertNextEquivariant(t, r.m(), 40, 60, 3)
		} else {
			spectest.AssertNextAsymmetric(t, r.m(), 40, 60, 3)
		}
	})
	ref := &r.refs[0]
	if symmetry {
		ref = &r.refs[1]
	}
	ref.once.Do(func() {
		ref.want = oracleBFS(r.m(), symmetry, r.depth)
		res := explorer.NewChecker(r.m(), explorer.Options{Workers: 1, Symmetry: symmetry, MaxDepth: r.depth, RecordVars: true}).Run()
		for _, v := range res.Violations {
			ref.traces = append(ref.traces, v.Trace.Format(true))
		}
	})
	if ref.want.distinct < 50 {
		t.Fatalf("%s: the oracle reached only %d states; the row proves nothing", r.name, ref.want.distinct)
	}
	return ref.want, ref.traces
}

// yieldingMachine yields before every expansion, so a pool's workers take
// turns even on one CPU and a cluster's seal sees states two workers both
// produced, which only its (owner, fp, parent) order resolves.
type yieldingMachine struct{ spec.Machine }

func (m yieldingMachine) AppendNext(s spec.State, buf []spec.Succ) []spec.Succ {
	runtime.Gosched()
	return m.Machine.AppendNext(s, buf)
}

// The stop axis: none; MaxDepth = L, a level boundary; or Options.Context
// canceled on the level-L event, which the next level observes after its
// first expansion block (a solo run) or at its barrier (a cluster). The
// cadence axis: none, EveryStates 1 (every level; every other level in a
// cluster, whose cadence reads the previous level's count), or sparse
// (EveryStates = the states through level 2).
const (
	stopNone, cadenceOff = iota, iota
	stopDepth, cadenceEveryLevel
	stopCancel, cadenceSparse
)

// shapeBudget is far below every row's working set. The engine spills no
// level smaller than frontierSpillFloor, and a mid-level stop waits out one
// expandBlock. Every cadence has checkpointed by minStopLevel.
const (
	shapeBudget        = 64 << 10
	frontierSpillFloor = 512
	expandBlock        = 1 << 14
	minStopLevel       = 3
)

// shape is one deployment shape of a row: W workers, P peers, a memory
// budget, a checkpoint cadence, a stop at level L followed by a resume at
// resumeW workers, and symmetry.
type shape struct {
	row              string
	w, p             int
	budget           bool
	cadence, stop, L int
	resumeW          int
	sym              bool
}

// shapeSeeds cover every row and every value of every axis: a mid-level stop
// (gosyncobj) under a budget at W = 2, budgets at W = 1 and 4 and one at
// P > 1 that must be refused, clusters of 2 and 3 peers at W = 2 and 4.
var shapeSeeds = []shape{
	{"toy", 1, 1, false, cadenceOff, stopNone, 0, 1, true},
	{"toy", 2, 1, true, cadenceEveryLevel, stopDepth, 5, 2, false},
	{"gosyncobj", 2, 1, true, cadenceEveryLevel, stopCancel, 10, 4, false},
	{"gosyncobj-buggy", 4, 1, false, cadenceSparse, stopDepth, 6, 1, true},
	{"craft", 2, 2, false, cadenceOff, stopNone, 0, 1, true},
	{"craft-buggy", 1, 1, false, cadenceOff, stopNone, 0, 1, true},
	{"craft-buggy", 4, 2, false, cadenceOff, stopNone, 0, 1, true},
	{"craft-buggy", 2, 3, false, cadenceEveryLevel, stopCancel, 5, 4, false},
	{"craft-buggy", 2, 2, true, cadenceEveryLevel, stopNone, 0, 1, false},
	{"asyncraft", 1, 3, false, cadenceEveryLevel, stopCancel, 3, 2, true},
	{"asyncraft-buggy", 2, 3, false, cadenceEveryLevel, stopDepth, 3, 4, false},
	{"daosraft", 4, 1, true, cadenceEveryLevel, stopDepth, 4, 2, true},
	{"daosraft-buggy", 1, 1, true, cadenceOff, stopNone, 0, 1, true},
	{"redisraft", 2, 1, false, cadenceSparse, stopCancel, 5, 1, false},
	{"redisraft-buggy", 1, 2, false, cadenceEveryLevel, stopCancel, 7, 2, true},
	{"xraft", 1, 1, true, cadenceEveryLevel, stopCancel, 4, 1, false},
	{"xraft-buggy", 2, 3, false, cadenceSparse, stopDepth, 4, 2, true},
	{"xraftkv", 4, 1, false, cadenceEveryLevel, stopNone, 0, 1, false},
	{"xraftkv-buggy", 1, 1, true, cadenceSparse, stopDepth, 5, 4, true},
	{"zabkeeper", 2, 2, false, cadenceEveryLevel, stopDepth, 4, 2, true},
	{"zabkeeper-buggy", 4, 3, false, cadenceOff, stopNone, 0, 1, true},
}

// FuzzShapeMatchesOracle holds every deployment shape to oracleBFS, peers
// running over transport.NewMesh (the TCP peer's frames over net.Pipe). Every
// peer's result and coverage projection must be the oracle's, and the
// counterexamples those of the solo single-worker run, at the oracle's
// depths. Each input is drawn modulo its axis; make fuzz draws more.
func FuzzShapeMatchesOracle(f *testing.F) {
	rows, workers := oracleRows(), []int{1, 2, 4}
	for _, s := range shapeSeeds {
		row := slices.IndexFunc(rows, func(r *oracleRow) bool { return r.name == s.row })
		f.Add(uint8(row), uint8(slices.Index(workers, s.w)), uint8(s.p-1), s.budget, uint8(s.cadence),
			uint8(s.stop), uint8(s.L), uint8(slices.Index(workers, s.resumeW)), s.sym)
	}
	f.Fuzz(func(t *testing.T, row, w, p uint8, budget bool, cadence, stop, L, resumeW uint8, sym bool) {
		t.Parallel()
		r := rows[int(row)%len(rows)]
		sh := shape{r.name, workers[w%3], 1 + int(p%3), budget, int(cadence % 3), int(stop % 3), int(L), workers[resumeW%3], sym}
		if sh.stop != stopNone && sh.cadence == cadenceOff {
			sh.cadence = cadenceEveryLevel // a stop resumes from a checkpoint
		}
		// Under symmetry a process's workers race for which orbit member is
		// stored, and a non-equivariant machine's members have different
		// successors; a cluster's min-parent merge stores the one W = 1 does.
		if !r.equivariant && sh.p == 1 && (sh.w > 1 || sh.stop != stopNone && sh.resumeW > 1) {
			sh.sym = false
		}
		sh.check(t, r)
	})
}

func (sh shape) check(t *testing.T, r *oracleRow) {
	want, traces := r.reference(t, sh.sym)
	stop, L := sh.stop, max(minStopLevel, sh.L%want.maxDepth)
	if L >= want.maxDepth {
		stop = stopNone
	}
	everyStates := []int{0, 1, want.levels[0].fresh + want.levels[1].fresh + want.levels[2].fresh}[sh.cadence]
	t.Logf("%+v: every=%d stop=%d@%d", sh, everyStates, stop, L)

	dir := t.TempDir()
	var frontierSpilled int64
	// leg runs the shape at w workers on every peer, tweak adjusting peer i's
	// options. Under a budget a solo leg leaves no spill scratch, and holds on
	// disk exactly the levels completed before the last one it inserted (that
	// one stays in RAM for the parent tie-break).
	leg := func(w int, tweak func(i int, o *explorer.Options)) []*explorer.Result {
		o := explorer.Options{Workers: w, Symmetry: sh.sym, MaxDepth: r.depth, Cover: true, RecordVars: true}
		if everyStates > 0 {
			o.Checkpoint = explorer.CheckpointOptions{Dir: dir, EveryStates: everyStates}
		}
		if sh.budget {
			o.MemBudget, o.SpillDir, o.Metrics = shapeBudget, t.TempDir(), obs.NewRegistry()
		}
		conns := transport.NewMesh(sh.p)
		results := make([]*explorer.Result, sh.p)
		var wg sync.WaitGroup
		for i := range results {
			o := o
			tweak(i, &o)
			if sh.p > 1 {
				o.Peer = &explorer.PeerOptions{Conn: conns[i]}
			}
			var m spec.Machine = r.m()
			if w > 1 {
				m = yieldingMachine{m}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = explorer.NewChecker(m, o).Run()
			}()
		}
		wg.Wait()
		if sh.budget && sh.p == 1 {
			if ents, err := os.ReadDir(o.SpillDir); err != nil || len(ents) != 0 {
				t.Errorf("spill scratch not cleaned up: %v %v", ents, err)
			}
			snap := o.Metrics.Snapshot()
			n, _ := snap["explorer.frontier_spilled_entries"].(int64)
			frontierSpilled += n
			var frozen int64
			if levels := results[0].Cover.Levels; len(levels) > 0 {
				for _, l := range want.levels[:levels[len(levels)-1].Depth] {
					frozen += int64(l.fresh)
				}
			}
			if got, _ := snap["fpset.spilled_entries"].(int64); got != frozen {
				t.Errorf("fingerprint set spilled %d entries, want the %d of its completed levels", got, frozen)
			}
		}
		return results
	}

	if sh.budget && sh.p > 1 {
		for i, res := range leg(sh.w, func(int, *explorer.Options) {}) {
			if res.StopReason != "config-error" || res.DistinctStates != 0 {
				t.Errorf("peer %d under a memory budget: stop=%s after %d states, want config-error before exploring", i, res.StopReason, res.DistinctStates)
			}
		}
		return
	}
	w := sh.w
	if stop != stopNone {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stopped := leg(w, func(i int, o *explorer.Options) {
			if stop == stopDepth {
				o.MaxDepth = L
				return
			}
			o.Context = ctx
			if i == 0 {
				o.Tracer = obs.NewTracer(io.Discard)
				o.Tracer.Tee(func(e obs.Event) {
					if e.Kind == "level" && e.Detail["depth"] == strconv.Itoa(L) {
						cancel()
					}
				})
			}
		})
		// Every peer stopped as asked, and the committed manifest is the deepest
		// level the run checkpointed: one before a level cut short mid-way, the
		// stopped level itself when a solo run that checkpoints every level
		// stopped at a boundary.
		for i, res := range stopped {
			if res.Err != nil || res.StopReason != []string{stopDepth: "max-depth", stopCancel: "canceled"}[stop] {
				t.Fatalf("peer %d: interrupted run stop=%s err=%v", i, res.StopReason, res.Err)
			}
		}
		var man struct{ Depth int }
		raw, err := os.ReadFile(filepath.Join(dir, explorer.ManifestFile))
		if err != nil || json.Unmarshal(raw, &man) != nil {
			t.Fatalf("interrupted run committed no checkpoint: %v", err)
		}
		res, last := stopped[0], 0
		for _, l := range res.Cover.Levels {
			if l.Checkpoint {
				last = l.Depth
			}
		}
		mid := sh.p == 1 && stop == stopCancel && want.levels[L].fresh > expandBlock
		switch {
		case man.Depth != last:
			t.Errorf("manifest commits depth %d, the run last checkpointed depth %d", man.Depth, last)
		case mid && man.Depth >= res.MaxDepth:
			t.Errorf("level %d was cut short mid-way (%d states to expand) but the manifest commits depth %d", res.MaxDepth, want.levels[L].fresh, man.Depth)
		case !mid && sh.p == 1 && everyStates == 1 && man.Depth != res.MaxDepth:
			t.Errorf("stopped at the boundary of level %d, the manifest commits depth %d", res.MaxDepth, man.Depth)
		}
		w = sh.resumeW
	}
	final := leg(w, func(_ int, o *explorer.Options) { o.Checkpoint.Resume = stop != stopNone })

	canonical := sh.p > 1 || w == 1
	for i, res := range final {
		if res.Err != nil || res.Resumed != (stop != stopNone) {
			t.Fatalf("peer %d: stop=%s err=%v resumed=%v", i, res.StopReason, res.Err, res.Resumed)
		}
		if got, want := project(res).render(res.Resumed, canonical), want.render(res.Resumed, canonical); got != want {
			t.Errorf("peer %d differs from the oracle:\n--- run\n%s--- oracle\n%s", i, got, want)
		}
	}
	// Only the coordinator reconstructs counterexamples: at P > 1 it probes
	// the other peers for the parent edges they own.
	var got []string
	for _, v := range final[0].Violations {
		if v.Trace == nil || v.Trace.Depth() != v.Depth {
			t.Errorf("%v: trace %v does not reach the violation's depth", v, v.Trace)
			continue
		}
		got = append(got, v.Trace.Format(true))
	}
	if !slices.Equal(got, traces) {
		t.Errorf("counterexample traces differ from the solo single-worker run's:\n%s\nwant\n%s",
			strings.Join(got, "\n"), strings.Join(traces, "\n"))
	}
	widest := slices.MaxFunc(want.levels[1:], func(a, b oracleLevel) int { return cmp.Compare(a.fresh, b.fresh) })
	if sh.budget && widest.fresh >= frontierSpillFloor && frontierSpilled == 0 {
		t.Errorf("a level of %d states never spilled its frontier (budget did not engage)", widest.fresh)
	}
}
