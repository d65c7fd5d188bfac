package raftbase

import (
	"testing"
	"unsafe"
)

// TestStateFootprint pins what a live state costs in bytes, with counts
// rather than clocks: every frontier state is one State plus one packedMsg
// per message in flight, and exploration time tracks those bytes almost
// linearly. Before queues stored packed messages, the State stopped naming
// its storage twice and per-node boolean rows became bit masks these were 896
// and 136; the State ceiling is an allocator size class (641 bytes cost 704).
func TestStateFootprint(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got > 640 {
		t.Errorf("sizeof(State) = %d, want <= 640", got)
	}
	if got := unsafe.Sizeof(packedMsg{}); got > 48 {
		t.Errorf("sizeof(packedMsg) = %d, want <= 48", got)
	}
	t.Logf("State %d B, packedMsg %d B, Msg %d B", unsafe.Sizeof(State{}), unsafe.Sizeof(packedMsg{}), unsafe.Sizeof(Msg{}))
}
