package explorer

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
)

// TestBFSCoverProfile runs the profiler over the exactly-analysable toy
// model and cross-checks the per-action and per-level totals against the
// run counters they decompose.
func TestBFSCoverProfile(t *testing.T) {
	res := NewChecker(newToy(4, false), Options{Cover: true}).Run()
	if res.Cover == nil {
		t.Fatal("Cover option set but Result.Cover is nil")
	}
	cover := res.Cover
	if cover.Mode != "bfs" {
		t.Fatalf("mode = %q", cover.Mode)
	}

	// The declared vocabulary comes from spec.ActionLister; the non-atomic
	// model fires both of its actions.
	if got := cover.ActionNames(); !reflect.DeepEqual(got, []string{"Read", "Write"}) {
		t.Fatalf("action names = %v", got)
	}
	if nf := cover.NeverFired(); nf != nil {
		t.Fatalf("never-fired = %v, want none", nf)
	}

	// Every generated transition is attributed to exactly one action, and
	// every fresh state beyond the inits to exactly one firing.
	if got := cover.TotalFired(); got != res.Transitions {
		t.Fatalf("sum of action fire counts = %d, want %d transitions", got, res.Transitions)
	}
	var fresh int64
	for _, a := range cover.Actions {
		fresh += a.Fresh
	}
	inits := int64(len(newToy(4, false).Init()))
	if fresh != int64(res.DistinctStates)-inits {
		t.Fatalf("sum of action fresh counts = %d, want %d", fresh, int64(res.DistinctStates)-inits)
	}

	// Per-level profile: level 0 is the init frontier; the remaining levels
	// decompose the run totals exactly, and every level's frontier is the
	// previous level's fresh count (level-synchronous BFS). An exhausted run
	// ends with one extra all-duplicate level past MaxDepth — the level that
	// proved the frontier empty.
	if len(cover.Levels) != res.MaxDepth+2 {
		t.Fatalf("levels = %d, want %d", len(cover.Levels), res.MaxDepth+2)
	}
	if last := cover.Levels[len(cover.Levels)-1]; last.Fresh != 0 {
		t.Fatalf("closing level = %+v, want no fresh states", last)
	}
	if lv0 := cover.Levels[0]; lv0.Depth != 0 || lv0.Fresh != int(inits) {
		t.Fatalf("level 0 = %+v", lv0)
	}
	var trans, dedup int64
	var levelFresh int
	for i, lv := range cover.Levels[1:] {
		if lv.Depth != i+1 {
			t.Fatalf("level %d has depth %d", i+1, lv.Depth)
		}
		if lv.Frontier != cover.Levels[i].Fresh {
			t.Fatalf("level %d frontier %d != level %d fresh %d", lv.Depth, lv.Frontier, i, cover.Levels[i].Fresh)
		}
		trans += lv.Transitions
		dedup += lv.Dedup
		levelFresh += lv.Fresh
	}
	if trans != res.Transitions || dedup != res.DedupHits {
		t.Fatalf("level sums trans=%d dedup=%d, want %d/%d", trans, dedup, res.Transitions, res.DedupHits)
	}
	if int64(levelFresh) != int64(res.DistinctStates)-inits {
		t.Fatalf("level fresh sum = %d, want %d", levelFresh, int64(res.DistinctStates)-inits)
	}
	// The toy model violates at depth 4: the profile must place the
	// violations on the right levels (StopAtFirstViolation off explores all).
	var viols int
	for _, lv := range cover.Levels {
		viols += lv.Violations
	}
	if viols != len(res.Violations) {
		t.Fatalf("level violations sum = %d, want %d", viols, len(res.Violations))
	}
}

// coverSignature renders a coverage profile for equality comparison across
// worker counts. Fingerprint-set probe counts are zeroed first: they depend
// on insertion order (a cost metric, not a result). With workers > 1,
// per-action fresh attribution is zeroed too: when two actions produce the
// same fingerprint at the same level, which one gets the fresh credit is
// decided by a concurrent insert race, so attribution is canonical only for
// single-worker (and cluster) runs — per-level fresh totals and per-action
// fired counts stay deterministic and are still compared.
func coverSignature(t *testing.T, cover *obs.Cover, workers int) string {
	t.Helper()
	cp := *cover
	cp.Levels = append([]obs.LevelStats(nil), cover.Levels...)
	for i := range cp.Levels {
		cp.Levels[i].FpsetProbes = 0
	}
	if workers > 1 {
		cp.Actions = make(map[string]*obs.ActionStats, len(cover.Actions))
		for name, a := range cover.Actions {
			ac := *a
			ac.Fresh, ac.LastFreshDepth = 0, 0
			cp.Actions[name] = &ac
		}
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBFSCoverDeterministicAcrossWorkers: merge-at-barrier collection must
// produce the same profile whatever the worker count — fired counts, the
// level profile and symmetry hits exactly; per-action Fresh/LastFreshDepth
// only at one worker, since at W>1 two actions reaching the same state
// within a level race for the fresh credit (see coverSignature and
// cluster.go).
func TestBFSCoverDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *obs.Cover {
		return NewChecker(newToy(4, false), Options{Cover: true, Workers: workers}).Run().Cover
	}
	base := run(1)
	if got, want := coverSignature(t, run(1), 1), coverSignature(t, base, 1); got != want {
		t.Fatalf("workers=1 profile not reproducible:\ngot  %s\nwant %s", got, want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got, want := coverSignature(t, run(workers), workers), coverSignature(t, base, workers); got != want {
			t.Fatalf("workers=%d profile diverged:\ngot  %s\nwant %s", workers, got, want)
		}
	}
}

// TestBFSCoverSymmetryHits: with symmetry on, the fully symmetric toy model
// must collapse many successors onto canonical representatives.
func TestBFSCoverSymmetryHits(t *testing.T) {
	plain := NewChecker(newToy(4, true), Options{Cover: true}).Run()
	if plain.Cover.SymmetryHits != 0 {
		t.Fatalf("symmetry off but %d hits recorded", plain.Cover.SymmetryHits)
	}
	sym := NewChecker(newToy(4, true), Options{Cover: true, Symmetry: true}).Run()
	if sym.Cover.SymmetryHits == 0 {
		t.Fatal("symmetry on but no hits recorded in a fully symmetric model")
	}
	// The atomic model fires only IncAtomic; Read/Write are not declared.
	if nf := sym.Cover.NeverFired(); nf != nil {
		t.Fatalf("never-fired = %v", nf)
	}
}

// TestBFSCoverZeroYieldOnMaxDepth: cutting the search short leaves the
// frontier's actions with fresh states, so a fully explored converging level
// shows up through dedup, not zero-yield flags on unrelated actions.
func TestBFSCoverNeverFiredOnAtomicVocabulary(t *testing.T) {
	// Force the non-atomic vocabulary but stop before Write can ever fire:
	// MaxDepth 1 only fires Read from the all-idle init state.
	res := NewChecker(newToy(3, false), Options{Cover: true, MaxDepth: 1}).Run()
	if nf := res.Cover.NeverFired(); !reflect.DeepEqual(nf, []string{"Write"}) {
		t.Fatalf("never-fired = %v, want [Write]", nf)
	}
}

// TestSimulateCoverProfile: the simulator aggregates a profile across walks
// with fresh-state attribution when TrackDistinct is on.
func TestSimulateCoverProfile(t *testing.T) {
	sim := NewSimulator(newToy(3, false), SimOptions{Seed: 7, Cover: true, TrackDistinct: true})
	walks := sim.Walks(20)
	cover := sim.Cover()
	if cover == nil || cover.Mode != "simulate" {
		t.Fatalf("cover = %+v", cover)
	}
	var steps int64
	for _, w := range walks {
		steps += int64(w.Stats.Depth)
	}
	if got := cover.TotalFired(); got != steps {
		t.Fatalf("fired = %d, want %d walked steps", got, steps)
	}
	var fresh int64
	for _, a := range cover.Actions {
		fresh += a.Fresh
	}
	// Init states insert into the distinct set outside any action, so the
	// action-attributed fresh count undercounts Distinct by those inits.
	if fresh <= 0 || fresh > sim.Distinct() {
		t.Fatalf("fresh = %d, distinct = %d", fresh, sim.Distinct())
	}
	if nf := cover.NeverFired(); nf != nil {
		t.Fatalf("never-fired = %v after 20 walks", nf)
	}
}
