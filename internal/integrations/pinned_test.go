package integrations

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// pinnedDigests holds, per machine, the digest foldBFS computes. Unlike the
// contract tests, which compare one build with itself, these constants were
// computed once and hold the bytes still across commits: a change that moves
// a fingerprint, an orbit fingerprint, an encoding, a rendering or the order
// of successors fails here. A change that means to move them re-pins the row
// and says why.
var pinnedDigests = map[string]string{
	"asyncraft":       "d44d4773f8a4414d9405efa65fbfff89171b69a484e197c5ec45a737956e5465",
	"asyncraft-buggy": "d44d4773f8a4414d9405efa65fbfff89171b69a484e197c5ec45a737956e5465",
	"craft":           "0c6f79d9efbc88fac18b2046742ba062406b3ef1ed194d786bff604bd83c8d40",
	"craft-buggy":     "5bb5df5388da4d6c125a050fe1e84ccf064bf07934603541363bc6a1abda2fb1",
	"daosraft":        "e99cb7c781595fb3a9fd551638bf1be3c275f298e881e290eb73385e210afc13",
	"daosraft-buggy":  "7a562794f5b276b7a4d485e0bd7b1f053dff50e3ab30dbc4d0b1e4db3635df8a",
	"gosyncobj":       "db80faf2afa97f9e14b0f21018cb57e2aacf7f011a86415cca4cd0b2356f4704",
	"gosyncobj-buggy": "b50acb49f89396a6bb8cc6242854ca142002aea8ce0b84b4f5727b93aa4a7f61",
	"gosyncobj-dirty": "ac36d95e6b01830296e689db8f4385b252225743161f7f8b91c28e424b497ea6",
	"redisraft":       "fd0dfa49d3cbd1c16a978e04b14f80b08e15a7f417931fba54dd72873bf0063c",
	"redisraft-buggy": "fd0dfa49d3cbd1c16a978e04b14f80b08e15a7f417931fba54dd72873bf0063c",
	"toy":             "426927b0175ad2bc1e4ed2c419191cb54e14b422eb5789ec9c305091772fbb09",
	"xraft":           "8a768783d40355f9f6cecbd4fb938137dc54d4bc6f4c016201ba8b6df8cadd32",
	"xraft-buggy":     "2a0fe33d9874919f8ca73d34d5cda4ae6754c42c722e63b7f755f3771745301b",
	"xraftkv":         "eeb7e6de4ceb3201f493328f4b125e640e7fc3081fb47a5c811dc82bede7c408",
	"xraftkv-buggy":   "0d8cf464ec79086722a6cfd20101fcca3ff7a2aaac7f423d2501ba07ad302c70",
	"zabkeeper":       "44f72b313afa8ae31825ffdf9861ffed65fef156be3197f5af238ab3a747966a",
	"zabkeeper-buggy": "44f72b313afa8ae31825ffdf9861ffed65fef156be3197f5af238ab3a747966a",
}

// pinnedBudget is small enough that a bounded search reaches the deep
// states defects live in, and lets two nodes be down at once.
var pinnedBudget = spec.Budget{
	Name: "pinned", MaxTimeouts: 2, MaxRequests: 1, MaxCrashes: 2, MaxRestarts: 2,
	MaxPartitions: 1, MaxDrops: 1, MaxDuplicates: 1, MaxBuffer: 2, MaxCompactions: 1,
}

// pinnedDepth and pinnedStates bound each row's search: BFS levels from Init,
// and distinct states visited (the first ones in BFS order).
const (
	pinnedDepth  = 40
	pinnedStates = 12000
)

// TestSpecBytesPinned folds a bounded BFS of every integrated system (fixed
// and all-defects builds), one raftbase row with dirty crashes, and the toy
// into one digest per row and holds it to pinnedDigests.
func TestSpecBytesPinned(t *testing.T) {
	rows := map[string]spec.Machine{"toy": &toy.LostUpdate{N: 3}}
	for _, sys := range All() {
		rows[sys.Name] = sys.NewMachine(sys.DefaultConfig, pinnedBudget, bugdb.NoBugs())
		rows[sys.Name+"-buggy"] = sys.NewMachine(sys.DefaultConfig, pinnedBudget, bugdb.AllBugs(sys.Name))
	}
	gso, err := Get("gosyncobj")
	if err != nil {
		t.Fatal(err)
	}
	dirty := pinnedBudget
	dirty.MaxDirtyCrashes = 1
	rows["gosyncobj-dirty"] = gso.NewMachine(gso.DefaultConfig, dirty, bugdb.NoBugs())
	for name, m := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got, states := foldBFS(m)
			if want := pinnedDigests[name]; got != want {
				t.Errorf("%s: digest of %d states = %q, pinned %q", name, states, got, want)
			}
		})
	}
}

// foldBFS runs a breadth-first search of m from its initial states, in
// successor order, deduplicated by Fingerprint and bounded by pinnedDepth
// and pinnedStates, and folds into one hex digest every visited state's
// Fingerprint, OrbitFingerprint, AppendState bytes and slot rendering, and
// every expanded state's successor events.
func foldBFS(m spec.Machine) (digest string, states int) {
	h := sha256.New()
	perms := spec.PermTableFor(m.NumNodes())
	scratch := new(fp.OrbitScratch)
	seen := map[uint64]bool{}
	var level []spec.State
	visit := func(s spec.State) {
		f := s.Fingerprint()
		if seen[f] || len(seen) >= pinnedStates {
			return
		}
		seen[f] = true
		level = append(level, s)
		foldState(h, m, s, perms, scratch)
	}
	for _, s := range m.Init() {
		visit(s)
	}
	for d := 0; d < pinnedDepth && len(level) > 0; d++ {
		cur := level
		level = nil
		for _, s := range cur {
			for _, su := range m.Next(s) {
				ev := su.Event
				foldString(h, string(ev.Type), ev.Action, ev.Payload)
				foldInt(h, int64(ev.Node), int64(ev.Peer), int64(ev.Index))
				visit(su.State)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), len(seen)
}

// slotted is the rendering every in-tree state provides.
type slotted interface {
	Schema() *trace.Schema
	VarSlots(dst []string)
}

func foldState(h hash.Hash, m spec.Machine, s spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) {
	min, reduced := m.OrbitFingerprint(s, perms, scratch)
	foldInt(h, int64(s.Fingerprint()), int64(min))
	if reduced {
		foldInt(h, 1)
	} else {
		foldInt(h, 0)
	}
	enc := m.AppendState(nil, s)
	foldInt(h, int64(len(enc)))
	h.Write(enc)
	sl := s.(slotted)
	dst := make([]string, sl.Schema().Len())
	sl.VarSlots(dst)
	foldString(h, dst...)
}

func foldInt(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func foldString(h hash.Hash, vs ...string) {
	for _, v := range vs {
		foldInt(h, int64(len(v)))
		h.Write([]byte(v))
	}
}
