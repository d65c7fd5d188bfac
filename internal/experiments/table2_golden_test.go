package experiments

import (
	"context"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/sandtable"
)

// goldenRow is what a Verification row of Table 2 pins at W = 1, where the
// search is deterministic: the depth of the counterexample and the distinct
// states when the search stopped, the counterexample's length before and
// after ddmin (`-shrink`), and whether the implementation confirmed the
// shrunk trace.
type goldenRow struct {
	Depth, States       int
	TraceLen, ShrunkLen int
	Confirmed           bool
}

// table2Golden is every Verification row of the catalog, computed before the
// raftbase state became one record and unchanged by it. A change that moves
// a row re-pins it on purpose and says which rows moved and why; a failure
// prints the row it measured in this syntax. The whole table takes about 50 s
// on two CPUs, the slowest rows (XraftKV#1, ZabKeeper#1) about 10 s each.
var table2Golden = map[string]goldenRow{
	"GoSyncObj#2": {Depth: 13, States: 130778, TraceLen: 13, ShrunkLen: 13, Confirmed: true},
	"GoSyncObj#3": {Depth: 15, States: 224549, TraceLen: 15, ShrunkLen: 15, Confirmed: true},
	"GoSyncObj#4": {Depth: 15, States: 224549, TraceLen: 15, ShrunkLen: 15, Confirmed: true},
	"GoSyncObj#5": {Depth: 14, States: 182183, TraceLen: 14, ShrunkLen: 14, Confirmed: true},
	"CRaft#1":     {Depth: 10, States: 52803, TraceLen: 10, ShrunkLen: 10, Confirmed: true},
	"CRaft#2":     {Depth: 10, States: 361405, TraceLen: 10, ShrunkLen: 10, Confirmed: true},
	"CRaft#4":     {Depth: 7, States: 13993, TraceLen: 7, ShrunkLen: 7, Confirmed: true},
	"CRaft#5":     {Depth: 10, States: 508473, TraceLen: 10, ShrunkLen: 10, Confirmed: true},
	"CRaft#7":     {Depth: 10, States: 508473, TraceLen: 10, ShrunkLen: 10, Confirmed: true},
	"DaosRaft#1":  {Depth: 7, States: 12756, TraceLen: 7, ShrunkLen: 7, Confirmed: true},
	"AsyncRaft#1": {Depth: 8, States: 48768, TraceLen: 8, ShrunkLen: 8, Confirmed: true},
	"AsyncRaft#2": {Depth: 7, States: 13999, TraceLen: 7, ShrunkLen: 7, Confirmed: true},
	"AsyncRaft#4": {Depth: 11, States: 139945, TraceLen: 11, ShrunkLen: 11, Confirmed: true},
	"Xraft#1":     {Depth: 13, States: 78760, TraceLen: 13, ShrunkLen: 13, Confirmed: true},
	"XraftKV#1":   {Depth: 13, States: 568902, TraceLen: 13, ShrunkLen: 13, Confirmed: true},
	"ZabKeeper#1": {Depth: 20, States: 594176, TraceLen: 20, ShrunkLen: 20, Confirmed: true},
}

// table2Row runs one Verification row the way `sandtable confirm -bug ID
// -shrink -workers 1` does: model checking, ddmin, implementation replay of
// the shrunk trace.
func table2Row(t *testing.T, id string) goldenRow {
	t.Helper()
	info, ok := bugdb.ByID(id)
	if !ok {
		t.Fatalf("unknown bug %s", id)
	}
	st, err := session(info.System, Detections[id])
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.RunConfirm(context.Background(), sandtable.Settings{Workers: 1, Shrink: true, Deadline: 4 * time.Minute}, sandtable.Sinks{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if out.Shrink == nil {
		t.Fatalf("%s: no shrink result (warnings %v)", id, out.Warnings)
	}
	return goldenRow{
		Depth: out.Violation.Depth, States: out.Check.DistinctStates,
		TraceLen: out.Shrink.OriginalLen, ShrunkLen: out.Shrink.MinimizedLen,
		Confirmed: out.Replay.Confirmed,
	}
}

// TestTable2Golden holds every Verification row of Table 2 to its pinned
// depth, states, counterexample lengths and confirm verdict, and every
// Verification row of the catalog to having a pin.
func TestTable2Golden(t *testing.T) {
	for _, info := range bugdb.Catalog {
		if info.Stage != bugdb.StageVerification {
			continue
		}
		id := info.ID
		t.Run(id, func(t *testing.T) {
			want, ok := table2Golden[id]
			if !ok {
				t.Fatalf("%s has no pinned row", id)
			}
			if got := table2Row(t, id); got != want {
				t.Errorf("measured\n\t%q: {Depth: %d, States: %d, TraceLen: %d, ShrunkLen: %d, Confirmed: %v},\npinned %+v",
					id, got.Depth, got.States, got.TraceLen, got.ShrunkLen, got.Confirmed, want)
			}
		})
	}
}
