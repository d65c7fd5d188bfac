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

// pinnedDigests holds, per machine, the two digests foldBFS computes: the
// semantics digest (fingerprints, orbit fingerprints, slot renderings and
// successor events) and the encoding digest (AppendState bytes). Unlike the
// contract tests, which compare one build with itself, these constants were
// computed once and hold the bytes still across commits: a change that moves
// a fingerprint, a rendering or the order of successors fails the first, a
// change to a codec the second. A change that means to move them re-pins the
// row and says why; an encoding change re-pins only encoding digests.
var pinnedDigests = map[string]struct{ semantics, encoding string }{
	"asyncraft": {
		"57bce6fcc5d115303956e3bfc6837ab0733bfcc3381999d398caa0af79c8399c",
		"13c3900f2c3618119f36f99a5adc5967132e7863e9f54c26dc49f1fd1b6ced46",
	},
	"asyncraft-buggy": {
		"57bce6fcc5d115303956e3bfc6837ab0733bfcc3381999d398caa0af79c8399c",
		"13c3900f2c3618119f36f99a5adc5967132e7863e9f54c26dc49f1fd1b6ced46",
	},
	"craft": {
		"b7398a520b33d048029e657b3f65ff25ef6b8df3ea7b4c5b47e461eff2ca9fd9",
		"db85357943ecd002f9f13d59ce385d6d122f77111047ec86672011f94d595005",
	},
	"craft-buggy": {
		"05dafc871803981d4740620ffd6417e51634f029f5ed4ea50b51cf07bff31aaf",
		"58d1f8b11076ca85870b7f59254409f0172a3cfd042994dc95083cb7a4cc97d3",
	},
	"daosraft": {
		"33c10a0014812d15ea3e3e81638e02c9b9992750a7912032756c6db059afbca8",
		"e25cadc7a85d114b689531db799a4a0c4ca5da8250b7fe5f5d699a37e2b3b782",
	},
	"daosraft-buggy": {
		"1e87e5672777b7cd18af08fe4fc3bb3775c999c2be314a96770d6b33b3606234",
		"acda4fee35629596c55ab99b27bf4f595f9a91c516e88b057991bf7e5dfa14cb",
	},
	"gosyncobj": {
		"6b766cb3d08f97c710d513cfe396a6060e626b32117b561d37ca285c4c18b0de",
		"763d676870a6fe49cd9d8cdf6b9e6e718916bfcdef1fd2cd4c2a8b97aa807af9",
	},
	"gosyncobj-buggy": {
		"530a2d57f7c98385fe1729757777695327837655934be4ffac41bb39cf6e86dd",
		"dc7d091beb095b5979db09379040bb7d215a982c2a90b5cf23fd4b99149f9489",
	},
	"gosyncobj-dirty": {
		"83cd71634f2c952e2cb31b7429814de01f48c479be9b89da4e21e289c75e1a50",
		"dd551633b0acb6576e05c896afa3c18a168279800c2a027806d48776afc629df",
	},
	"redisraft": {
		"74206bfaa8ea18bd58ed706c5aaca0e7d6808e0df54008aa6667d9a70aefb040",
		"7be1a289b3430c33e98e1e177821d9240c8c90d8313b8e532f21915bc85c5b67",
	},
	"redisraft-buggy": {
		"74206bfaa8ea18bd58ed706c5aaca0e7d6808e0df54008aa6667d9a70aefb040",
		"7be1a289b3430c33e98e1e177821d9240c8c90d8313b8e532f21915bc85c5b67",
	},
	"toy": {
		"55d246d11ed379d89b65213cd8d920aa2d897ab0e05df5eca37cf91de287a0ec",
		"dbd91dd64c59dcab00f778374873b1e5b13e73e6c6a122355b0a6415d1a56adb",
	},
	"xraft": {
		"c3c7fff6c665d1ef58b07c430a2e726d22ceff847163d26c2ee54db72b2d141b",
		"a138a20e6363d460a82d95b134b6d37b98f582e4092952c8209f93f655c0a22d",
	},
	"xraft-buggy": {
		"caf3b28e290db9ffc3d97d1f63ed6fb2bcf0fab34e3b88f08d4828d909799031",
		"a138a20e6363d460a82d95b134b6d37b98f582e4092952c8209f93f655c0a22d",
	},
	"xraftkv": {
		"836132f407c5d9d6f299f2430c8c0cb5f06640157c327c614b9c0a809d58bf34",
		"2fefa59318972067a07e4171910d597cd31aa3c7487dfc3d15620751a5cd80bb",
	},
	"xraftkv-buggy": {
		"6cd4702500e8a28dddba576703bec0f2d7dc20860ade9a8fbc5e589b80de2d24",
		"1819702988c39e2015c2626551163a585d3aa3590c374054e4007a8d1101f3bb",
	},
	"zabkeeper": {
		"e82ff6e57c9b0b0ef03f06d4a340ecd06ecf4a3bc2bd45c9e83dcf5573b7569c",
		"6c7231886710a27008ff21ea37e39b37d69ad9c1a4942ed873604dc9ade99e35",
	},
	"zabkeeper-buggy": {
		"e82ff6e57c9b0b0ef03f06d4a340ecd06ecf4a3bc2bd45c9e83dcf5573b7569c",
		"6c7231886710a27008ff21ea37e39b37d69ad9c1a4942ed873604dc9ade99e35",
	},
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
// into two digests per row and holds them to pinnedDigests.
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
			sem, enc, states := foldBFS(m)
			want := pinnedDigests[name]
			if sem != want.semantics {
				t.Errorf("%s: semantics digest of %d states = %q, pinned %q", name, states, sem, want.semantics)
			}
			if enc != want.encoding {
				t.Errorf("%s: encoding digest of %d states = %q, pinned %q", name, states, enc, want.encoding)
			}
		})
	}
}

// foldBFS runs a breadth-first search of m from its initial states, in
// successor order, deduplicated by Fingerprint and bounded by pinnedDepth
// and pinnedStates. It folds into the semantics digest every visited state's
// Fingerprint, OrbitFingerprint and slot rendering and every expanded state's
// successor events, and into the encoding digest every visited state's
// AppendState bytes.
func foldBFS(m spec.Machine) (semantics, encoding string, states int) {
	h, he := sha256.New(), sha256.New()
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
		foldState(h, he, m, s, perms, scratch)
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
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(he.Sum(nil)), len(seen)
}

// slotted is the rendering every in-tree state provides.
type slotted interface {
	Schema() *trace.Schema
	VarSlots(dst []string)
}

func foldState(h, he hash.Hash, m spec.Machine, s spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) {
	min, reduced := m.OrbitFingerprint(s, perms, scratch)
	foldInt(h, int64(s.Fingerprint()), int64(min))
	if reduced {
		foldInt(h, 1)
	} else {
		foldInt(h, 0)
	}
	enc := m.AppendState(nil, s)
	foldInt(he, int64(len(enc)))
	he.Write(enc)
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
