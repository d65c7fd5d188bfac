// Package spectest holds the laws of the spec.Machine contract as property
// tests over seeded random walks. The engine calls only the fast methods
// (AppendNext, OrbitFingerprint, the codec); each law holds one of them to its
// slow, obviously-right definition — Next, Permute followed by
// State.Fingerprint — which nothing but these tests calls. AssertContract
// runs them all; a spec package's test suite calls it once per machine
// variant.
package spectest

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// AssertContract asserts every law of the spec.Machine contract at every
// state of `walks` seeded random walks of up to `depth` steps: buffered
// append semantics, orbit fingerprint against the materialising oracle, codec
// round trip with its corruption sweep, and equivariance of the successor
// relation.
func AssertContract(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	assertPointwise(t, m, walks, depth, seed)
	AssertNextEquivariant(t, m, walks, depth, seed)
}

// AssertContractExceptEquivariance is AssertContract for a machine pinned as
// not equivariant: every other law must hold, and AssertNextAsymmetric.
func AssertContractExceptEquivariance(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	assertPointwise(t, m, walks, depth, seed)
	AssertNextAsymmetric(t, m, walks, depth, seed)
}

func assertPointwise(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	if len(m.Actions()) == 0 {
		t.Fatalf("%s declares no actions", m.Name())
	}
	AssertBufferedEquiv(t, m, walks, depth, seed)
	AssertOrbitEquiv(t, m, walks, depth, seed)
	AssertCodecRoundTrip(t, m, walks, depth, seed)
}

// walk calls visit with every state, and its depth, along `walks` seeded
// random walks of up to `depth` steps over m, until visit returns false.
func walk(m spec.Machine, walks, depth int, seed int64, visit func(s spec.State, d int) bool) {
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < walks; w++ {
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			if !visit(cur, d) {
				return
			}
			succs := m.Next(cur)
			if len(succs) == 0 {
				break
			}
			cur = succs[rng.Intn(len(succs))].State
		}
	}
}

// AssertOrbitEquiv asserts the canonicalization law at every walked state s
// against the materialising oracle Permute(s, p).Fingerprint():
//
//   - OrbitFingerprint's minimum equals the oracle's min over the whole
//     orbit (identity included), and its reduced flag equals
//     "a non-identity permutation strictly beat the plain fingerprint";
//   - when m also implements spec.FastSymmetric, PermutedFingerprint
//     agrees with the oracle for every permutation individually;
//
// while reusing one scratch across all calls (the explorer's per-worker
// usage pattern, which also catches stale-scratch bugs).
func AssertOrbitEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	pt := spec.PermTableFor(m.NumNodes())
	fast, _ := m.(spec.FastSymmetric)
	scratch := fp.NewOrbitScratch()
	walk(m, walks, depth, seed, func(cur spec.State, _ int) bool {
		plain := cur.Fingerprint()
		wantMin := plain
		for _, p := range pt.NonIdentity {
			ref := m.Permute(cur, p).Fingerprint()
			if fast != nil {
				if got := fast.PermutedFingerprint(cur, p); got != ref {
					t.Fatalf("%s: PermutedFingerprint(%v) = %#x, oracle Permute+Fingerprint = %#x",
						m.Name(), p, got, ref)
				}
			}
			wantMin = min(wantMin, ref)
		}
		gotMin, gotReduced := m.OrbitFingerprint(cur, pt, scratch)
		if gotMin != wantMin {
			t.Fatalf("%s: OrbitFingerprint min = %#x, oracle orbit min = %#x (plain %#x)",
				m.Name(), gotMin, wantMin, plain)
		}
		if wantReduced := wantMin != plain; gotReduced != wantReduced {
			t.Fatalf("%s: OrbitFingerprint reduced = %v, want %v (min %#x, plain %#x)",
				m.Name(), gotReduced, wantReduced, wantMin, plain)
		}
		return true
	})
}

// AssertBufferedEquiv asserts, at every walked state s, that
// AppendNext(s, buf) appends exactly the successors Next(s) returns — same
// count, same events, same successor fingerprints — while reusing one
// scratch buffer across all calls (the explorer's per-worker usage pattern).
// It also asserts the append contract proper: an existing buffer prefix
// survives untouched.
func AssertBufferedEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	var buf []spec.Succ
	walk(m, walks, depth, seed, func(cur spec.State, _ int) bool {
		buf = m.AppendNext(cur, buf[:0])
		compareSuccs(t, m, m.Next(cur), buf, 0)
		return true
	})

	// Append contract: a non-empty prefix must survive untouched.
	s := m.Init()[0]
	prefix := m.AppendNext(s, nil)
	if len(prefix) == 0 {
		return
	}
	// Snapshot the expectation first: the second AppendNext may legally grow
	// prefix's backing array in place, overwriting prefix[1:].
	want := append([]spec.Succ(nil), prefix...)
	out := m.AppendNext(s, prefix[:1])
	if len(out) != 1+len(want) {
		t.Fatalf("%s: AppendNext with prefix returned %d successors, want %d",
			m.Name(), len(out), 1+len(want))
	}
	if out[0].Event.String() != want[0].Event.String() ||
		out[0].State.Fingerprint() != want[0].State.Fingerprint() {
		t.Fatalf("%s: AppendNext overwrote the buffer prefix", m.Name())
	}
	compareSuccs(t, m, want, out, 1)
}

// compareSuccs asserts got[skip:] matches want element-wise (event rendering
// and successor fingerprint — fingerprints are the explorer's notion of
// state identity).
func compareSuccs(t *testing.T, m spec.Machine, want, got []spec.Succ, skip int) {
	t.Helper()
	got = got[skip:]
	if len(want) != len(got) {
		t.Fatalf("%s: AppendNext returned %d successors, Next returned %d",
			m.Name(), len(got), len(want))
	}
	for i := range want {
		if w, g := want[i].Event.String(), got[i].Event.String(); w != g {
			t.Fatalf("%s: successor %d event mismatch: Next %q, AppendNext %q", m.Name(), i, w, g)
		}
		if w, g := want[i].State.Fingerprint(), got[i].State.Fingerprint(); w != g {
			t.Fatalf("%s: successor %d state fingerprint mismatch: Next %#x, AppendNext %#x",
				m.Name(), i, w, g)
		}
	}
}

// AssertCodecRoundTrip asserts, at every walked state s, the codec law the
// explorer's frontier spill, cluster exchange, and checkpoints rely on:
//
//   - DecodeState(AppendState(nil, s)) has s's fingerprint, the same
//     rendered variables, and the same successor fingerprints, and consumes
//     the whole encoding;
//   - bytes following an encoding come back untouched as the remainder (the
//     batching contract: many states in one buffer);
//   - every strict prefix of an encoding fails to decode — no silent short
//     reads;
//   - a single corrupted byte either fails to decode or yields a state that
//     hashes (plain and under every node permutation) without panicking.
func AssertCodecRoundTrip(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	succFPs := func(s spec.State) []uint64 {
		var fps []uint64
		for _, su := range m.Next(s) {
			fps = append(fps, su.State.Fingerprint())
		}
		slices.Sort(fps)
		return fps
	}
	trailer := []byte{0xde, 0xad, 0xbe, 0xef}
	walk(m, walks, depth, seed, func(cur spec.State, d int) bool {
		enc := m.AppendState(nil, cur)
		dec, rest, err := m.DecodeState(append(enc[:len(enc):len(enc)], trailer...))
		if err != nil {
			t.Fatalf("%s: decode at depth %d: %v", m.Name(), d, err)
		}
		if !bytes.Equal(rest, trailer) {
			t.Fatalf("%s: decode returned remainder %x, want the %x that followed the encoding", m.Name(), rest, trailer)
		}
		if got, want := dec.Fingerprint(), cur.Fingerprint(); got != want {
			t.Fatalf("%s: fingerprint %#x after round trip, want %#x", m.Name(), got, want)
		}
		if got, want := dec.Vars(), cur.Vars(); !maps.Equal(got, want) {
			t.Fatalf("%s: Vars differ after round trip:\n got %v\nwant %v", m.Name(), got, want)
		}
		if got, want := succFPs(dec), succFPs(cur); !slices.Equal(got, want) {
			t.Fatalf("%s: successor sets differ after round trip (%d vs %d successors)", m.Name(), len(got), len(want))
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := m.DecodeState(enc[:cut]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte encoding decoded without error", m.Name(), cut, len(enc))
			}
		}
		// Hostile bytes (the expensive check, so sampled): nudge every
		// byte of the encoding both ways. Whatever DecodeState still
		// accepts must survive the canonical hashing a resume runs to
		// vet it; a panic here fails the test.
		if d%4 == 0 {
			mut := slices.Clone(enc)
			for i, b := range enc {
				for _, v := range [...]byte{b - 1, b + 1} {
					mut[i] = v
					if dec, _, err := m.DecodeState(mut); err == nil {
						hashEveryWay(m, dec)
					}
				}
				mut[i] = b
			}
		}
		return true
	})
}

// hashEveryWay hashes s through every fingerprint path m has, engine-facing
// and oracle.
func hashEveryWay(m spec.Machine, s spec.State) {
	s.Fingerprint()
	pt := spec.PermTableFor(m.NumNodes())
	m.OrbitFingerprint(s, pt, fp.NewOrbitScratch())
	fast, _ := m.(spec.FastSymmetric)
	for _, p := range pt.NonIdentity {
		if fast != nil {
			fast.PermutedFingerprint(s, p)
		}
		m.Permute(s, p).Fingerprint()
	}
}

// Asymmetry is a witness against Next-equivariance: a reachable state s and
// a node permutation π for which Next(π·s) and π·Next(s) differ as multisets
// of (action, successor fingerprint).
type Asymmetry struct {
	Perm  []int
	Depth int
	State spec.State
	// Lost are the transitions of s whose permuted successor π·s lacks;
	// Gained are the transitions of π·s with no counterpart from s.
	Lost, Gained []spec.Succ
}

// String renders the witness: the permutation, the unmatched transitions on
// each side, and the variables of the state they leave from.
func (a *Asymmetry) String() string {
	events := func(ss []spec.Succ) string {
		var out []string
		for _, su := range ss {
			out = append(out, su.Event.String())
		}
		return strings.Join(out, "; ")
	}
	vars := a.State.Vars()
	var b strings.Builder
	fmt.Fprintf(&b, "π = %v at depth %d\n  transitions of s with no image among Next(π·s): %s\n  transitions of π·s with no preimage in Next(s): %s\n  s:",
		a.Perm, a.Depth, events(a.Lost), events(a.Gained))
	for _, k := range slices.Sorted(maps.Keys(vars)) {
		fmt.Fprintf(&b, " %s=%s", k, vars[k])
	}
	return b.String()
}

// FindNextAsymmetry walks m and returns the first witness against
//
//	Next(π·s) = π·Next(s)    for every reachable s and node permutation π
//
// or nil when the walks find none. This is the law symmetry reduction
// assumes: the explorer stores one member of each orbit and expands only it,
// which reaches every orbit only if all members have the same successors up
// to permutation. Both sides are built from the oracles alone (Next, Permute,
// State.Fingerprint).
func FindNextAsymmetry(m spec.Machine, walks, depth int, seed int64) *Asymmetry {
	type key struct {
		action string
		fp     uint64
	}
	var found *Asymmetry
	walk(m, walks, depth, seed, func(s spec.State, d int) bool {
		succs := m.Next(s)
		for _, p := range spec.PermTableFor(m.NumNodes()).NonIdentity {
			direct := m.Next(m.Permute(s, p))
			images := make([]key, len(succs))
			balance := make(map[key]int)
			for i, su := range succs {
				images[i] = key{su.Event.Action, m.Permute(su.State, p).Fingerprint()}
				balance[images[i]]++
			}
			a := &Asymmetry{Perm: p, Depth: d, State: s}
			for _, su := range direct {
				k := key{su.Event.Action, su.State.Fingerprint()}
				if balance[k]--; balance[k] < 0 {
					a.Gained = append(a.Gained, su)
				}
			}
			for i, su := range succs {
				if balance[images[i]] > 0 {
					a.Lost = append(a.Lost, su)
				}
			}
			if len(a.Lost)+len(a.Gained) > 0 {
				found = a
				return false
			}
		}
		return true
	})
	return found
}

// AssertNextEquivariant fails with the witness when FindNextAsymmetry finds
// one.
func AssertNextEquivariant(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	if a := FindNextAsymmetry(m, walks, depth, seed); a != nil {
		t.Fatalf("%s: successor relation does not commute with node permutation:\n%v", m.Name(), a)
	}
}

// AssertNextAsymmetric is the pin for a machine known not to be equivariant:
// the walks must find a witness, which is logged. It fails once the machine
// becomes equivariant, so the pin cannot outlive its reason.
func AssertNextAsymmetric(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	a := FindNextAsymmetry(m, walks, depth, seed)
	if a == nil {
		t.Fatalf("%s: pinned as not equivariant, but these walks find no witness any more: unpin it", m.Name())
	}
	t.Logf("%s: pinned as not equivariant; witness:\n%v", m.Name(), a)
}
