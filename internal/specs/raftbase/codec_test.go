package raftbase

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
)

// codecMachines covers the codec-relevant feature axes: plain TCP, UDP with
// snapshots + dirty crashes (exercises DurLog/SnapIdx/compaction fields), KV
// reads (LastRead*), and a buggy run whose states carry Viol.Flag.
func codecMachines() map[string]*Machine {
	return map[string]*Machine{
		"gosyncobj": New(Options{
			System: "gosyncobj", Profile: GoSyncObj, Transport: spec.TCP,
			Config: spec.Config{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
			Budget: spec.Budget{Name: "codec", MaxTimeouts: 2, MaxRequests: 1, MaxBuffer: 2},
		}),
		"craft-dirty": New(Options{
			System: "craft", Profile: CRaft, Transport: spec.UDP, Snapshots: true,
			Config: spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}},
			Budget: spec.Budget{Name: "codec", MaxTimeouts: 2, MaxRequests: 1, MaxDrops: 1,
				MaxBuffer: 2, MaxCompactions: 1, MaxDirtyCrashes: 1},
		}),
		"xraftkv": New(Options{
			System: "xraftkv", Profile: Xraft, Transport: spec.TCP, KV: true, PreVote: true,
			Config: spec.Config{Name: "n2w1", Nodes: 2, Workload: []string{"v1"}},
			Budget: spec.Budget{Name: "codec", MaxTimeouts: 2, MaxRequests: 1, MaxBuffer: 2},
		}),
		"craft-buggy": New(Options{
			System: "craft", Profile: CRaft, Transport: spec.UDP, Snapshots: true,
			Bugs:             bugdb.VerificationBugs("craft"),
			ContinuePastFlag: true,
			Config:           spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}},
			Budget: spec.Budget{Name: "codec", MaxTimeouts: 2, MaxRequests: 1,
				MaxBuffer: 2, MaxCompactions: 1},
		}),
	}
}

// succFPs returns the sorted successor fingerprints of s under m.
func succFPs(m *Machine, s spec.State) []uint64 {
	succs := m.AppendNext(s, nil)
	fps := make([]uint64, len(succs))
	for i, sc := range succs {
		fps[i] = sc.State.Fingerprint()
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return fps
}

// sameNilness reports whether the per-node rows of two states agree on
// nil-vs-allocated, which permute branches on.
func sameNilness(a, b *State) error {
	for i := 0; i < a.n; i++ {
		if (a.votes(i) == 0) != (b.votes(i) == 0) {
			return fmt.Errorf("Votes[%d] nil-ness differs", i)
		}
		if (a.preVotes(i) == 0) != (b.preVotes(i) == 0) {
			return fmt.Errorf("PreVotes[%d] nil-ness differs", i)
		}
		if a.hasNext(i) != b.hasNext(i) {
			return fmt.Errorf("Next[%d] nil-ness differs", i)
		}
		if a.hasMatch(i) != b.hasMatch(i) {
			return fmt.Errorf("Match[%d] nil-ness differs", i)
		}
	}
	return nil
}

func TestCodecRoundTrip(t *testing.T) {
	const maxStates = 3000
	for name, m := range codecMachines() {
		t.Run(name, func(t *testing.T) {
			var codec spec.StateCodec = m // compile-time capability check
			seen := map[uint64]bool{}
			var queue []spec.State
			for _, s := range m.Init() {
				if fp := s.Fingerprint(); !seen[fp] {
					seen[fp] = true
					queue = append(queue, s)
				}
			}
			checked, flagged := 0, 0
			for i := 0; i < len(queue) && len(queue) < maxStates; i++ {
				s := queue[i].(*State)
				enc := codec.AppendState(nil, s)
				dec, rest, err := codec.DecodeState(enc)
				if err != nil {
					t.Fatalf("state %d: decode: %v", i, err)
				}
				if len(rest) != 0 {
					t.Fatalf("state %d: %d bytes left after decode", i, len(rest))
				}
				ds := dec.(*State)
				if got, want := ds.Fingerprint(), s.Fingerprint(); got != want {
					t.Fatalf("state %d: fingerprint %#x after round trip, want %#x", i, got, want)
				}
				if !reflect.DeepEqual(spec.VarsOf(ds), spec.VarsOf(s)) {
					t.Fatalf("state %d: Vars differ after round trip", i)
				}
				if err := sameNilness(s, ds); err != nil {
					t.Fatalf("state %d: %v", i, err)
				}
				if ds.Viol.Flag != s.Viol.Flag {
					t.Fatalf("state %d: Viol.Flag %q after round trip, want %q", i, ds.Viol.Flag, s.Viol.Flag)
				}
				if s.Viol.Flag != "" {
					flagged++
				}
				// Behavioural identity is the expensive check; sample it.
				if i%17 == 0 {
					if !reflect.DeepEqual(succFPs(m, dec), succFPs(m, s)) {
						t.Fatalf("state %d: successor sets differ after round trip", i)
					}
					checked++
				}
				for _, sc := range m.AppendNext(s, nil) {
					if fp := sc.State.Fingerprint(); !seen[fp] {
						seen[fp] = true
						queue = append(queue, sc.State)
					}
				}
			}
			if len(queue) < 100 {
				t.Fatalf("only %d states explored; config too tight to exercise the codec", len(queue))
			}
			t.Logf("%d states round-tripped, %d successor-checked, %d flagged", len(queue), checked, flagged)
			if flagged == 0 {
				// The BFS cutoff may sit above the first flagged state, so
				// exercise the Viol.Flag encoding on a synthetic one.
				s := queue[len(queue)-1].(*State).copyTo(nil)
				s.Viol.Flag = "synthetic-flag"
				dec, _, err := codec.DecodeState(codec.AppendState(nil, s))
				if err != nil {
					t.Fatalf("flagged state: %v", err)
				}
				if ds := dec.(*State); ds.Viol.Flag != s.Viol.Flag || ds.Fingerprint() != s.Fingerprint() {
					t.Fatalf("flagged state round trip: flag %q fp match %v", ds.Viol.Flag, ds.Fingerprint() == s.Fingerprint())
				}
			}
		})
	}
}

// TestCodecBatch decodes several states appended into one buffer, the way
// frontier spill files and cluster blocks batch them.
func TestCodecBatch(t *testing.T) {
	m := codecMachines()["gosyncobj"]
	states := m.Init()
	for _, sc := range m.AppendNext(states[0], nil) {
		states = append(states, sc.State)
		if len(states) >= 5 {
			break
		}
	}
	var buf []byte
	for _, s := range states {
		buf = m.AppendState(buf, s)
	}
	for i, s := range states {
		dec, rest, err := m.DecodeState(buf)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		buf = rest
		if dec.Fingerprint() != s.Fingerprint() {
			t.Fatalf("state %d: fingerprint mismatch in batch", i)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after batch decode", len(buf))
	}
}

// TestCodecRejectsTruncation: every strict prefix of a valid encoding must
// fail to decode (no silent short reads).
func TestCodecRejectsTruncation(t *testing.T) {
	m := codecMachines()["craft-dirty"]
	s := m.Init()[0]
	enc := m.AppendState(nil, s)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := m.DecodeState(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
}

// FuzzDecodeState fuzzes the Raft-family codec on the build that encodes the
// most fields (UDP queues, snapshots, durability mirrors), seeded with
// reachable states; see spectest.FuzzDecodeState.
func FuzzDecodeState(f *testing.F) {
	spectest.FuzzDecodeState(f, codecMachines()["craft-dirty"], 8, 40, 3)
}
