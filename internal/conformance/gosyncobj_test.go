package conformance_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/sandtable"
)

// fixedGoSyncObj is the session `sandtable conform -system gosyncobj -fixed`
// runs, with the system's resource check replaced by check (nil keeps none).
func fixedGoSyncObj(t testing.TB, check func(*engine.Cluster) error) *sandtable.SandTable {
	t.Helper()
	sys, err := integrations.Get("gosyncobj")
	if err != nil {
		t.Fatal(err)
	}
	s := *sys
	s.ResourceCheck = check
	return sandtable.New(&s, s.DefaultConfig, s.DefaultBudget, bugdb.NoBugs())
}

// TestEventsCheckedPinned pins the number of events a round replays to the
// value recorded before the engine seeded its random streams on first draw
// and before rendering went to key tables: 18,197 events for 1,000 walks of
// depth 30 from seed 1 (6,000 walks, the benchmark's round, read 108,647).
// Every walk, and so every replayed event, must stay where it was, at one
// worker and at two.
func TestEventsCheckedPinned(t *testing.T) {
	st := fixedGoSyncObj(t, nil)
	for _, workers := range []int{1, 2} {
		rep, err := st.Conform(conformance.Options{Walks: 1000, WalkDepth: 30, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() || rep.Walks != 1000 || rep.EventsChecked != 18197 {
			t.Errorf("workers=%d: passed=%v walks=%d events=%d, want a passing round of 1000 walks and 18197 events",
				workers, rep.Passed(), rep.Walks, rep.EventsChecked)
		}
	}
}

// TestParallelRoundHoldsOnlyWalksInFlight bounds the live heap of a two-worker
// round: the resource-check hook forces a collection every thousand events
// and samples HeapAlloc. A passing walk's trace (every step's rendered
// variables) must be dropped once it has replayed; when every walk's slot
// kept it until the round ended, 2,000 walks held 69 MiB.
func TestParallelRoundHoldsOnlyWalksInFlight(t *testing.T) {
	const bound = 16 << 20
	var events atomic.Int64
	var peak atomic.Uint64
	st := fixedGoSyncObj(t, func(*engine.Cluster) error {
		if events.Add(1)%1000 == 0 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			for p := peak.Load(); ms.HeapAlloc > p && !peak.CompareAndSwap(p, ms.HeapAlloc); p = peak.Load() {
			}
		}
		return nil
	})
	rep, err := st.Conform(conformance.Options{Walks: 2000, WalkDepth: 30, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || rep.EventsChecked != 36066 {
		t.Fatalf("passed=%v events=%d, want a passing round of 36066 events", rep.Passed(), rep.EventsChecked)
	}
	t.Logf("peak live heap %.1f MiB over %d events", float64(peak.Load())/(1<<20), rep.EventsChecked)
	if peak.Load() > bound {
		t.Errorf("peak live heap %.1f MiB, want <= %d MiB", float64(peak.Load())/(1<<20), bound>>20)
	}
}

// TestConformAllocsPerEvent pins the allocation cost of one conformance step
// — walk, boot, apply, observe and compare — per replayed event of a
// one-worker round, the way TestAllocsPerState pins the explorer's. Rendering
// with fmt on both sides, a map per observation and four random sources
// seeded per walk cost 99; key tables, one observation map per walk and
// streams seeded on first draw measured 44; lock-step on slot vectors, where
// a passing walk builds no map and no trace, measured 30.7, and 21.5 before
// walks stepped in place; building each successor in a state the walk left
// behind measures 18.1 (19.4 under -race). The ceiling, ~1.5x that, leaves
// room for allocator noise, not for a structural regression.
func TestConformAllocsPerEvent(t *testing.T) {
	st := fixedGoSyncObj(t, nil)
	var events int
	allocs := testing.AllocsPerRun(1, func() {
		rep, err := st.Conform(conformance.Options{Walks: 500, WalkDepth: 30, Seed: 1, Workers: 1})
		if err != nil || !rep.Passed() {
			t.Fatalf("round failed: %v %v", err, rep.Discrepancy)
		}
		events = rep.EventsChecked
	})
	perEvent := allocs / float64(events)
	t.Logf("allocs/run=%.0f events=%d allocs/event=%.1f", allocs, events, perEvent)
	if perEvent > 27 {
		t.Errorf("allocations per replayed event = %.1f, want <= 27", perEvent)
	}
}
