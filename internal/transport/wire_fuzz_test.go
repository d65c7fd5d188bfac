package transport

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/craft"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
)

// FuzzDecodeWireBlock fuzzes the bytes a peer hands this one at every level
// barrier. Whatever they are, DecodeWireBlock must return an error or a block
// that is strictly increasing in fingerprint (the owner's merge relies on it)
// and survives the trip back: encoded again and decoded, the same
// candidates. The corpus is seeded with the blocks real runs exchange —
// candidates of reachable craft and zabkeeper states, sorted by fingerprint
// with one per fingerprint, in blocks of one to a few hundred.
func FuzzDecodeWireBlock(f *testing.F) {
	budget := spec.Budget{Name: "fuzz", MaxTimeouts: 3, MaxCrashes: 1, MaxRestarts: 1, MaxRequests: 1, MaxPartitions: 1, MaxDrops: 1, MaxBuffer: 3}
	for _, m := range []spec.Machine{
		craft.New(spec.DefaultConfig(), budget, bugdb.NoBugs()),
		zabkeeper.New(spec.DefaultConfig(), budget, bugdb.NoBugs()),
	} {
		var cands []Candidate
		spectest.BFS(m, 300, func(s spec.State) {
			parent := s.Fingerprint()
			for _, su := range m.Next(s) {
				cands = append(cands, Candidate{
					FP:     su.State.Fingerprint(),
					Parent: parent,
					Action: uint16(slices.Index(m.Actions(), su.Event.Action)),
					State:  m.AppendState(nil, su.State),
				})
			}
		})
		slices.SortFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.FP, b.FP) })
		cands = slices.CompactFunc(cands, func(a, b Candidate) bool { return a.FP == b.FP })
		for _, n := range []int{1, 7, 300} {
			payload, err := EncodeBlock(cands[:n])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cands, err := DecodeWireBlock(payload)
		if err != nil {
			return
		}
		for i := 1; i < len(cands); i++ {
			if cands[i].FP <= cands[i-1].FP {
				t.Fatalf("accepted block is not strictly increasing: candidate %d fp %#x after %#x", i, cands[i].FP, cands[i-1].FP)
			}
		}
		again, err := EncodeBlock(cands)
		if err != nil {
			t.Fatalf("an accepted block of %d candidates does not encode: %v", len(cands), err)
		}
		back, err := DecodeWireBlock(again)
		if err != nil {
			t.Fatalf("an accepted block of %d candidates does not decode once encoded again: %v", len(cands), err)
		}
		if len(cands)+len(back) > 0 && !reflect.DeepEqual(cands, back) {
			t.Fatalf("an accepted block of %d candidates came back as %d different ones", len(cands), len(back))
		}
	})
}
