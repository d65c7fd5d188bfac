package zabkeeper

import (
	"testing"
	"unsafe"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// TestStateFootprint pins what a live state costs in bytes (see raftbase's):
// one State plus one packedMsg per message in flight. Before queues stored
// packed messages, the State stopped naming its storage twice and per-node
// boolean rows became bit masks these were 840 and 136; the State ceiling is
// an allocator size class.
func TestStateFootprint(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got > 576 {
		t.Errorf("sizeof(State) = %d, want <= 576", got)
	}
	if got := unsafe.Sizeof(packedMsg{}); got > 56 {
		t.Errorf("sizeof(packedMsg) = %d, want <= 56", got)
	}
	t.Logf("State %d B, packedMsg %d B, Msg %d B", unsafe.Sizeof(State{}), unsafe.Sizeof(packedMsg{}), unsafe.Sizeof(Msg{}))
}

// TestVoteTotalOrderDoesNotAllocate: the invariant runs once per fresh state,
// and used to build its two vote lists on the heap each time (7.5 of
// zabkeeper's 22.4 allocations per distinct state).
func TestVoteTotalOrderDoesNotAllocate(t *testing.T) {
	m := New(spec.DefaultConfig(), spec.Budget{MaxTimeouts: 2, MaxBuffer: 4}, bugdb.NoBugs())
	s := m.Init()[0]
	for i := 0; i < 3; i++ { // every node LOOKING with a vote in hand
		s = m.Next(s)[0].State
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.voteTotalOrder(s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("voteTotalOrder allocates %.0f times per call, want 0", n)
	}
}
