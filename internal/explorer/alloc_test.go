package explorer

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	scraft "github.com/sandtable-go/sandtable/internal/specs/craft"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// craftHunt and zabHunt are the craft and zabkeeper models `sandtable check
// -fixed` explores by default (the benchmark's input is the first).
func craftHunt() spec.Machine {
	return scraft.New(spec.DefaultConfig(), spec.Budget{
		Name: "hunt", MaxTimeouts: 6, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 2,
		MaxPartitions: 1, MaxDrops: 2, MaxDuplicates: 1, MaxBuffer: 4, MaxCompactions: 1,
	}, bugdb.NoBugs())
}

func zabHunt() spec.Machine {
	return zabkeeper.New(spec.DefaultConfig(), spec.Budget{
		Name: "hunt", MaxTimeouts: 6, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 3,
		MaxPartitions: 1, MaxBuffer: 4,
	}, bugdb.NoBugs())
}

// TestAllocsPerState pins the expansion pipeline's allocation budget: a
// single-worker BFS must stay under a fixed number of heap allocations per
// distinct state. Successors are built in the dead states the worker's buffer
// still holds, so a duplicate — three successors in five — costs nothing, and
// a fresh state costs the one object graph that replaces it in the buffer
// once the frontier has taken it (spec.Keep), plus whatever a handler
// allocates on top of the recycled clone and amortised fingerprint-set
// growth.
//
// A regression in that discipline (a successor slot that stops being
// recycled, successor slices, frontier double-buffering, per-worker scratch)
// shows up here as a jump: before slots were recycled every successor was a
// fresh clone, ~40 allocations per distinct state on craft. The bounds have
// ~1.5x headroom over the measured values so they only trip on structural
// regressions, not allocator noise.
func TestAllocsPerState(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mk        func() spec.Machine
		maxStates int
		ceiling   float64
	}{
		{"toy", func() spec.Machine { return newToy(4, false) }, 0, 8}, // measured 6.3
		// A raftbase state became a header, one pointer-free record and one
		// message array, and spec.Net two arrays (no matrix, no per-queue
		// slices): craft was 10.9, zabkeeper 14.0. Before that, per-node
		// boolean rows became bit masks and zabkeeper's VoteTotalOrder
		// invariant stopped building its vote lists on the heap: craft was
		// 13.4, zabkeeper 22.7.
		{"craft", craftHunt, 60000, 5},    // measured 3.44
		{"zabkeeper", zabHunt, 60000, 17}, // measured 11.1
	} {
		t.Run(tc.name, func(t *testing.T) {
			var distinct int
			allocs := testing.AllocsPerRun(3, func() {
				res := NewChecker(tc.mk(), Options{Workers: 1, Symmetry: true, MaxStates: tc.maxStates}).Run()
				if res.DistinctStates == 0 {
					t.Fatal("no states explored")
				}
				distinct = res.DistinctStates
			})
			perState := allocs / float64(distinct)
			t.Logf("allocs/run=%.0f distinct=%d allocs/state=%.2f", allocs, distinct, perState)
			if perState > tc.ceiling {
				t.Errorf("allocations per distinct state = %.2f, want <= %.1f", perState, tc.ceiling)
			}
		})
	}
}

// TestBytesPerState pins the expansion pipeline's byte budget the way
// TestAllocsPerState pins its allocation count: heap bytes allocated
// (MemStats.TotalAlloc) per distinct state of a single-worker BFS. On the
// frontier-bound inputs this engine is for, run time follows this number
// almost linearly — it is the page a fresh state first touches and the memory
// the collector then has to mark — so a State that grows a field, a queued
// message that grows an operand or a row that gets its own allocation shows
// here before it shows on a clock. Before a raftbase state became a header
// and a record, craft measured 2374 and zabkeeper 2962; before queued
// messages were stored packed, the State slimmed and boolean rows turned into
// bit masks, 4157 and 5249. Ceilings have the same ~1.5x headroom.
func TestBytesPerState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func() spec.Machine
		ceiling float64
	}{
		{"craft", craftHunt, 1600},   // measured 1088
		{"zabkeeper", zabHunt, 3800}, // measured 2536
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := NewChecker(tc.mk(), Options{Workers: 1, Symmetry: true, MaxStates: 60000}).Run()
			runtime.ReadMemStats(&after)
			if res.DistinctStates == 0 {
				t.Fatal("no states explored")
			}
			perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.DistinctStates)
			t.Logf("distinct=%d bytes/state=%.0f", res.DistinctStates, perState)
			if perState > tc.ceiling {
				t.Errorf("heap bytes per distinct state = %.0f, want <= %.0f", perState, tc.ceiling)
			}
		})
	}
}

// clusterHunt explores the craft hunt model as a two-peer in-process cluster
// of single-worker peers (the benchmark's explore_cluster shape, minus the
// sockets) and returns the cluster-wide distinct-state count.
func clusterHunt(t *testing.T) int {
	results := runClusterPeers(2, func(int) Options {
		return Options{Workers: 1, Symmetry: true, MaxStates: 20000, Checkpoint: CheckpointOptions{Label: "hunt"}}
	}, nil)
	for i, res := range results {
		if res.Err != nil || res.DistinctStates == 0 {
			t.Fatalf("peer %d: distinct=%d err=%v", i, res.DistinctStates, res.Err)
		}
	}
	return results[0].DistinctStates
}

// TestClusterAllocsPerState is TestAllocsPerState for the cluster's candidate
// path, both peers' allocations over the cluster's distinct states: a repeat
// a worker already buffered this level costs nothing (no Keep, no encoding),
// an outbound candidate is encoded into the worker's slab, and a block is one
// presized buffer. Before that, each repeat was kept or encoded and then
// dropped by a map, and blocks were DEFLATE streams: 26.3 here.
func TestClusterAllocsPerState(t *testing.T) {
	const ceiling = 22.0 // measured 14.9
	var distinct int
	allocs := testing.AllocsPerRun(1, func() { distinct = clusterHunt(t) })
	perState := allocs / float64(distinct)
	t.Logf("allocs/run=%.0f distinct=%d allocs/state=%.2f", allocs, distinct, perState)
	if perState > ceiling {
		t.Errorf("allocations per distinct state = %.2f, want <= %.1f", perState, ceiling)
	}
}

// TestClusterBytesPerState is TestBytesPerState for the same run. Before
// repeats stopped costing a Keep or an encoding and blocks stopped being
// DEFLATE streams it measured 7,893.
func TestClusterBytesPerState(t *testing.T) {
	const ceiling = 6500.0 // measured 4,311
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	distinct := clusterHunt(t)
	runtime.ReadMemStats(&after)
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(distinct)
	t.Logf("distinct=%d bytes/state=%.0f", distinct, perState)
	if perState > ceiling {
		t.Errorf("heap bytes per distinct state = %.0f, want <= %.0f", perState, ceiling)
	}
}

// TestAllocsPerSuccessor pins what successor enumeration itself allocates
// once the buffer is warm: the clone is free (recycled), so what is left is
// what handlers allocate — a log that grows, a message payload. Before
// successor slots were recycled this was 13.2 per successor on craft.
func TestAllocsPerSuccessor(t *testing.T) {
	const ceiling = 2.0 // measured 0.45 here, ~1.0 on the benchmark's sampled states
	m := craftHunt()
	// Parents: the states of seeded random walks, so every depth the budget
	// reaches is represented.
	var parents []spec.State
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 40; w++ {
		cur := m.Init()[0]
		for d := 0; d < 30; d++ {
			parents = append(parents, cur)
			next := m.AppendNext(cur, nil)
			if len(next) == 0 {
				break
			}
			cur = next[rng.Intn(len(next))].State
		}
	}
	var buf []spec.Succ
	succs := 0
	for _, s := range parents { // grow the buffer outside the measurement
		buf = m.AppendNext(s, buf[:0])
		succs += len(buf)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, s := range parents {
			buf = m.AppendNext(s, buf[:0])
		}
	})
	perSucc := allocs / float64(succs)
	t.Logf("allocs/run=%.0f successors=%d allocs/successor=%.2f", allocs, succs, perSucc)
	if perSucc > ceiling {
		t.Errorf("allocations per successor = %.2f, want <= %.1f", perSucc, ceiling)
	}
}

// TestWalkerStepsInPlace holds Walker.Step to its half of spec.Keep's
// hand-back rule on craft. Its walks, one after another on one walker (so
// each walk's first step recycles the previous walk's last state), equal
// walks that keep every successor and hand nothing back — event, fingerprint
// and encoding at every step. And once a walk has been taken, taking it again
// allocates nothing per step: every successor is built in a state the walk
// left behind.
func TestWalkerStepsInPlace(t *testing.T) {
	const depth = 40
	m := craftHunt()
	w := NewWalker(m, depth)
	rng := rand.New(rand.NewSource(0))
	var buf []spec.Succ
	for seed := int64(1); seed <= 20; seed++ {
		rng.Seed(seed)
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		w.Reset(seed)
		for d := 0; ; d++ {
			buf = m.AppendNext(cur, buf[:0])
			ev, ok := w.Step()
			if ok != (len(buf) > 0 && d < depth) {
				t.Fatalf("seed %d, step %d: walker took a step = %v with %d successors enabled", seed, d, ok, len(buf))
			}
			if !ok {
				break
			}
			i := rng.Intn(len(buf))
			want := buf[i].Event
			cur = spec.Keep(buf, i, nil)
			got := w.State()
			if ev.String() != want.String() || got.Fingerprint() != cur.Fingerprint() ||
				!bytes.Equal(m.AppendState(nil, got), m.AppendState(nil, cur)) {
				t.Fatalf("seed %d, step %d: walker stepped by %s to %#x, the keeping walk by %s to %#x",
					seed, d, ev, got.Fingerprint(), want, cur.Fingerprint())
			}
		}
	}

	const seed = 7
	steps := 0
	for w.Reset(seed); ; steps++ {
		if _, ok := w.Step(); !ok {
			break
		}
	}
	if steps < 10 {
		t.Fatalf("walk of %d steps proves nothing", steps)
	}
	w.Reset(seed)
	allocs := testing.AllocsPerRun(steps-1, func() { // one warm-up call, then steps-1
		if _, ok := w.Step(); !ok {
			t.Fatal("the walk ended early the second time")
		}
	})
	if allocs != 0 {
		t.Errorf("Walker.Step allocates %.2f per step once warm, want 0", allocs)
	}
}
