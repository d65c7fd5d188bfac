// Package spectest provides generic property tests shared by the
// specification packages' test suites. It verifies the
// spec.BufferedMachine contract — pooled successor enumeration
// (AppendNext into a caller-owned scratch buffer) must be observationally
// identical to the allocating Next path, including when the buffer is
// recycled across calls and when it arrives with a non-empty prefix — and
// the spec.OrbitHasher contract: the incremental min-of-orbit canonical
// fingerprint must equal the reference computed by materialising every
// permuted state — and the spec.StateCodec contract: states survive an
// encode/decode round trip with their identity and behaviour intact, and
// malformed encodings are rejected rather than mis-decoded.
package spectest

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// AssertOrbitEquiv drives `walks` seeded random walks of up to `depth`
// steps over m (which must implement spec.OrbitHasher) and, at every
// visited state s, asserts the full canonicalization contract against the
// materialising reference Permute(s, p).Fingerprint():
//
//   - OrbitFingerprint's minimum equals the reference min over the whole
//     orbit (identity included), and its reduced flag equals
//     "a non-identity permutation strictly beat the plain fingerprint";
//   - when m also implements spec.FastSymmetric, PermutedFingerprint
//     agrees with the reference for every permutation individually;
//
// while reusing one scratch across all calls (the explorer's per-worker
// usage pattern, which also catches stale-scratch bugs).
func AssertOrbitEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	oh, ok := m.(spec.OrbitHasher)
	if !ok {
		t.Fatalf("%s does not implement spec.OrbitHasher", m.Name())
	}
	pt := spec.PermTableFor(oh.NumNodes())
	fast, _ := m.(spec.FastSymmetric)
	scratch := fp.NewOrbitScratch()
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for w := 0; w < walks; w++ {
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			plain := cur.Fingerprint()
			wantMin := plain
			for _, p := range pt.NonIdentity {
				ref := oh.Permute(cur, p).Fingerprint()
				if fast != nil {
					if got := fast.PermutedFingerprint(cur, p); got != ref {
						t.Fatalf("%s: PermutedFingerprint(%v) = %#x, reference Permute+Fingerprint = %#x",
							m.Name(), p, got, ref)
					}
				}
				if ref < wantMin {
					wantMin = ref
				}
			}
			gotMin, gotReduced := oh.OrbitFingerprint(cur, pt, scratch)
			if gotMin != wantMin {
				t.Fatalf("%s: OrbitFingerprint min = %#x, reference orbit min = %#x (plain %#x)",
					m.Name(), gotMin, wantMin, plain)
			}
			if wantReduced := wantMin != plain; gotReduced != wantReduced {
				t.Fatalf("%s: OrbitFingerprint reduced = %v, want %v (min %#x, plain %#x)",
					m.Name(), gotReduced, wantReduced, wantMin, plain)
			}
			checked++
			succs := m.Next(cur)
			if len(succs) == 0 {
				break
			}
			cur = succs[rng.Intn(len(succs))].State
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no states checked", m.Name())
	}
}

// AssertBufferedEquiv drives `walks` seeded random walks of up to `depth`
// steps over m and, at every visited state s, asserts that
// AppendNext(s, buf) appends exactly the successors Next(s) returns — same
// count, same events, same successor fingerprints — while reusing one
// scratch buffer across all calls (the explorer's per-worker usage pattern).
// It also asserts the append contract proper: an existing buffer prefix
// survives untouched. Machines that do not implement spec.BufferedMachine
// fail immediately.
func AssertBufferedEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	bm, ok := m.(spec.BufferedMachine)
	if !ok {
		t.Fatalf("%s does not implement spec.BufferedMachine", m.Name())
	}
	rng := rand.New(rand.NewSource(seed))
	var buf []spec.Succ
	checked := 0
	for w := 0; w < walks; w++ {
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			plain := m.Next(cur)
			buf = bm.AppendNext(cur, buf[:0])
			compareSuccs(t, m, plain, buf, 0)
			checked++
			if t.Failed() || len(plain) == 0 {
				break
			}
			cur = plain[rng.Intn(len(plain))].State
		}
		if t.Failed() {
			return
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no states checked", m.Name())
	}

	// Append contract: a non-empty prefix must survive untouched.
	inits := m.Init()
	s := inits[0]
	prefix := bm.AppendNext(s, nil)
	if len(prefix) == 0 {
		return
	}
	// Snapshot the expectation first: the second AppendNext may legally grow
	// prefix's backing array in place, overwriting prefix[1:].
	want := append([]spec.Succ(nil), prefix...)
	out := bm.AppendNext(s, prefix[:1])
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

// AssertCodecRoundTrip drives `walks` seeded random walks of up to `depth`
// steps over m (which must implement spec.StateCodec) and, at every visited
// state s, asserts the codec contract the explorer's frontier spill, cluster
// exchange, and checkpoints rely on:
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
	codec, ok := m.(spec.StateCodec)
	if !ok {
		t.Fatalf("%s does not implement spec.StateCodec", m.Name())
	}
	succFPs := func(s spec.State) []uint64 {
		var fps []uint64
		for _, su := range m.Next(s) {
			fps = append(fps, su.State.Fingerprint())
		}
		slices.Sort(fps)
		return fps
	}
	trailer := []byte{0xde, 0xad, 0xbe, 0xef}
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for w := 0; w < walks; w++ {
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			enc := codec.AppendState(nil, cur)
			dec, rest, err := codec.DecodeState(append(enc[:len(enc):len(enc)], trailer...))
			if err != nil {
				t.Fatalf("%s: decode at walk %d depth %d: %v", m.Name(), w, d, err)
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
				if _, _, err := codec.DecodeState(enc[:cut]); err == nil {
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
						if dec, _, err := codec.DecodeState(mut); err == nil {
							canonicalFP(m, dec)
						}
					}
					mut[i] = b
				}
			}
			checked++
			succs := m.Next(cur)
			if len(succs) == 0 {
				break
			}
			cur = succs[rng.Intn(len(succs))].State
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no states checked", m.Name())
	}
}

// canonicalFP hashes s the way the explorer does: through every symmetry
// capability m offers.
func canonicalFP(m spec.Machine, s spec.State) {
	s.Fingerprint()
	sym, ok := m.(spec.Symmetric)
	if !ok {
		return
	}
	pt := spec.PermTableFor(sym.NumNodes())
	if oh, ok := m.(spec.OrbitHasher); ok {
		oh.OrbitFingerprint(s, pt, fp.NewOrbitScratch())
	}
	fast, _ := m.(spec.FastSymmetric)
	for _, p := range pt.NonIdentity {
		if fast != nil {
			fast.PermutedFingerprint(s, p)
		}
		sym.Permute(s, p).Fingerprint()
	}
}
