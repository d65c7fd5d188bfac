// Package spectest holds the laws of the spec.Machine contract as property
// tests over seeded random walks. The engine calls only the fast methods
// (AppendNext through a reused buffer, OrbitFingerprint, the codec); each law
// holds one of them to its slow, obviously-right definition — AppendNext into
// a nil buffer, Permute followed by State.Fingerprint — which nothing but
// these tests calls. AssertContract
// runs them all; a spec package's test suite calls it once per machine
// variant.
package spectest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// AssertContract asserts every law of the spec.Machine contract at every
// state of `walks` seeded random walks of up to `depth` steps: buffered
// append semantics with slack recycling, orbit fingerprint against the
// materialising oracle, codec round trip with its corruption sweep, and
// equivariance of the successor relation.
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

// Walk calls visit with every state, and its depth, along `walks` seeded
// random walks of up to `depth` steps over m, until visit returns false.
func Walk(m spec.Machine, walks, depth int, seed int64, visit func(s spec.State, d int) bool) {
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < walks; w++ {
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			if !visit(cur, d) {
				return
			}
			succs := m.AppendNext(cur, nil)
			if len(succs) == 0 {
				break
			}
			cur = succs[rng.Intn(len(succs))].State
		}
	}
}

// BFS calls visit with every state of a breadth-first search of m from its
// initial states, deduplicated by plain fingerprint, until maxStates have
// been visited. It is built from AppendNext(s, nil) and State.Fingerprint
// alone, for laws that should hold at every reachable state rather than
// along sampled walks.
func BFS(m spec.Machine, maxStates int, visit func(spec.State)) {
	seen := make(map[uint64]bool)
	var queue []spec.State
	push := func(s spec.State) {
		if f := s.Fingerprint(); !seen[f] && len(seen) < maxStates {
			seen[f] = true
			queue = append(queue, s)
		}
	}
	for _, s := range m.Init() {
		push(s)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		visit(s)
		for _, su := range m.AppendNext(s, nil) {
			push(su.State)
		}
	}
}

// GoalInvariant names the pseudo-invariant WithGoal adds.
const GoalInvariant = "Goal"

// WithGoal turns a reachability question into a safety check, as TLC does:
// the returned machine keeps m's invariants and gains GoalInvariant, which
// fails at every state where goal holds, so a checker's counterexample to it
// is a witness that the goal is reachable. A test asserts that the first
// violation is GoalInvariant's: a real invariant failing first means the goal
// lies beyond a bug. A checker stopping at that first violation leaves the
// states past the goal unchecked, so a test that also wants m's invariants
// over its whole budget runs m alone as well.
func WithGoal(m spec.Machine, goal func(spec.State) bool) spec.Machine {
	return goalMachine{Machine: m, goal: goal}
}

type goalMachine struct {
	spec.Machine
	goal func(spec.State) bool
}

var errGoal = errors.New("goal state reached")

// Invariants implements spec.Machine: m's own, then the goal.
func (g goalMachine) Invariants() []spec.Invariant {
	return append(slices.Clone(g.Machine.Invariants()), spec.Invariant{Name: GoalInvariant, Check: func(s spec.State) error {
		if g.goal(s) {
			return errGoal
		}
		return nil
	}})
}

// AssertOrbitEquiv asserts the canonicalization law at every walked state s
// against the materialising oracle Permute(s, p).Fingerprint():
//
//   - OrbitFingerprint's minimum equals the oracle's min over the whole
//     orbit (identity included), and its reduced flag equals
//     "a non-identity permutation strictly beat the plain fingerprint";
//   - when the state implements spec.Orbit, spec.PermutedFingerprint
//     agrees with the oracle for every permutation individually, so a wrong
//     combine under a permutation that never wins the minimum still fails;
//
// while reusing one scratch across all calls (the explorer's per-worker
// usage pattern, which also catches stale-scratch bugs).
func AssertOrbitEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	pt := spec.PermTableFor(m.NumNodes())
	scratch := fp.NewOrbitScratch()
	Walk(m, walks, depth, seed, func(cur spec.State, _ int) bool {
		plain := cur.Fingerprint()
		wantMin := plain
		orbit, _ := cur.(spec.Orbit)
		for _, p := range pt.NonIdentity {
			ref := m.Permute(cur, p).Fingerprint()
			if orbit != nil {
				if got := spec.PermutedFingerprint(orbit, p); got != ref {
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

// AssertBufferedEquiv asserts the ownership rules of spec.BufferedMachine
// along walks that step through one reused buffer — the way the explorer's
// workers, the simulator and trace reconstruction use it — so that from the
// second step on the buffer's slack is full of dead states for the machine to
// recycle, including every sibling of the state being expanded. At every
// state s of such a walk:
//
//   - AppendNext(s, buf[:0]) yields the same (event, fingerprint, encoding)
//     sequence as the allocating AppendNext(s, nil);
//   - s itself, which the previous step took out of buf with spec.Keep,
//     encodes to the same bytes after the call as before it;
//   - so does every state Keep took earlier, in this walk or a previous one,
//     however many calls ago.
//
// It also asserts that slack the machine cannot use as it stands is replaced
// rather than tripped over — nil slots and states of no machine to begin
// with, and before each walk the successors one of the donors enumerates
// through the same buffer: the same family at another node count, a machine
// of another type. The donor recycles what m left there, is held to the first
// rule itself, and leaves its own states for m to find. Last comes the append
// contract proper: an existing buffer prefix survives untouched.
func AssertBufferedEquiv(t *testing.T, m spec.Machine, walks, depth int, seed int64, donors ...spec.Machine) {
	t.Helper()
	type kept struct {
		s   spec.State
		enc []byte
	}
	rng := rand.New(rand.NewSource(seed))
	// The walks share the buffer, so a walk's first steps recycle states of
	// the previous walk's last ones. It starts out as slack of the wrong kind.
	buf := make([]spec.Succ, 0, 4)
	for i := range buf[:cap(buf)] {
		if i%2 == 0 {
			buf[:cap(buf)][i].State = alien{}
		}
	}
	var keeps []kept
	for w := 0; w < walks; w++ {
		if len(donors) > 0 {
			d := donors[w%len(donors)]
			s := d.Init()[0]
			buf = d.AppendNext(s, buf[:0])
			compareSuccs(t, d, d.AppendNext(s, nil), buf, 0)
		}
		inits := m.Init()
		cur := inits[rng.Intn(len(inits))]
		for d := 0; d <= depth; d++ {
			before := m.AppendState(nil, cur)
			want := m.AppendNext(cur, nil)
			buf = m.AppendNext(cur, buf[:0])
			compareSuccs(t, m, want, buf, 0)
			if after := m.AppendState(nil, cur); !bytes.Equal(before, after) {
				t.Fatalf("%s: AppendNext through a reused buffer changed its parent at depth %d", m.Name(), d)
			}
			for age, k := range keeps {
				if now := m.AppendState(nil, k.s); !bytes.Equal(k.enc, now) {
					t.Fatalf("%s: a state taken with Keep changed %d calls later (walk %d, depth %d)", m.Name(), len(keeps)-age, w, d)
				}
			}
			if len(buf) == 0 {
				break
			}
			cur = spec.Keep(buf, rng.Intn(len(buf)))
			keeps = append(keeps, kept{cur, m.AppendState(nil, cur)})
		}
	}

	// Append contract: a non-empty prefix must survive untouched.
	s := m.Init()[0]
	want := m.AppendNext(s, nil)
	if len(want) == 0 {
		return
	}
	prefix := m.AppendNext(s, nil)
	out := m.AppendNext(s, prefix[:1])
	if len(out) != 1+len(want) {
		t.Fatalf("%s: AppendNext with prefix returned %d successors, want %d",
			m.Name(), len(out), 1+len(want))
	}
	compareSuccs(t, m, want[:1], out[:1], 0)
	compareSuccs(t, m, want, out, 1)
}

// alien is a state of no machine under test: slack an AppendNext must not
// mistake for its own.
type alien struct{}

func (alien) Fingerprint() uint64     { return 0 }
func (alien) Vars() map[string]string { return nil }

// compareSuccs asserts got[skip:] matches want element-wise: event
// rendering, successor fingerprint (the explorer's notion of state identity)
// and successor encoding (all it keeps of a state).
func compareSuccs(t *testing.T, m spec.Machine, want, got []spec.Succ, skip int) {
	t.Helper()
	got = got[skip:]
	if len(want) != len(got) {
		t.Fatalf("%s: AppendNext into a buffer returned %d successors, into nil %d",
			m.Name(), len(got), len(want))
	}
	for i := range want {
		if w, g := want[i].Event.String(), got[i].Event.String(); w != g {
			t.Fatalf("%s: successor %d event mismatch: fresh %q, buffered %q", m.Name(), i, w, g)
		}
		if w, g := want[i].State.Fingerprint(), got[i].State.Fingerprint(); w != g {
			t.Fatalf("%s: successor %d state fingerprint mismatch: fresh %#x, buffered %#x",
				m.Name(), i, w, g)
		}
		if w, g := m.AppendState(nil, want[i].State), m.AppendState(nil, got[i].State); !bytes.Equal(w, g) {
			t.Fatalf("%s: successor %d encodes differently fresh (%x) and buffered (%x)", m.Name(), i, w, g)
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
//     hashes (plain and under every node permutation) without panicking;
//   - decoding never narrows: with a varint too large for any field stored
//     in fewer than 64 bits spliced in at each offset in turn, DecodeState
//     fails or returns a state that encodes back to exactly the bytes it
//     consumed. (A decoder that wrapped the value would hand back a
//     different, well-formed state — one whose re-fingerprint check is all
//     that stands between it and a silently wrong frontier.) The same
//     equality on the untouched encoding is the round trip's own statement
//     that what a state stores of a message is lossless.
func AssertCodecRoundTrip(t *testing.T, m spec.Machine, walks, depth int, seed int64) {
	t.Helper()
	succFPs := func(s spec.State) []uint64 {
		var fps []uint64
		for _, su := range m.AppendNext(s, nil) {
			fps = append(fps, su.State.Fingerprint())
		}
		slices.Sort(fps)
		return fps
	}
	trailer := []byte{0xde, 0xad, 0xbe, 0xef}
	Walk(m, walks, depth, seed, func(cur spec.State, d int) bool {
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
		if again := m.AppendState(nil, dec); !bytes.Equal(again, enc) {
			t.Fatalf("%s: a decoded state encodes to %x, the state it was decoded from to %x", m.Name(), again, enc)
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
			spliceVarints(enc, 1<<40, func(i int, mut []byte) {
				dec, rest, err := m.DecodeState(mut)
				if err != nil {
					return
				}
				used := mut[:len(mut)-len(rest)]
				if again := m.AppendState(nil, dec); !bytes.Equal(again, used) {
					t.Fatalf("%s: with 1<<40 spliced in at byte %d, DecodeState accepted\n%x\nas a state that encodes to\n%x", m.Name(), i, used, again)
				}
			})
		}
		return true
	})
}

// spliceVarints calls visit with a copy of enc in which the varint starting at
// byte i is replaced by v's, for every i at which some varint starts (a field
// boundary or not: the encoding does not say). The copy is reused between
// calls.
func spliceVarints(enc []byte, v int64, visit func(i int, mut []byte)) {
	var mut []byte
	for i := range enc {
		_, n := binary.Varint(enc[i:])
		if n <= 0 {
			continue
		}
		mut = binary.AppendVarint(append(mut[:0], enc[:i]...), v)
		visit(i, append(mut, enc[i+n:]...))
	}
}

// FuzzDecodeState fuzzes m.DecodeState, seeded with the encodings of the
// states along `walks` seeded walks of up to `depth` steps and, for a sample
// of them, with the largest varint there is spliced in at every offset (what
// a field stored narrow must refuse, not wrap). Encoded states
// come back from spill runs, checkpoints and peers, so whatever the bytes,
// DecodeState must return an error or a state that survives what the engine
// does to a decoded state first: canonical hashing, rendering, and encoding
// again.
func FuzzDecodeState(f *testing.F, m spec.Machine, walks, depth int, seed int64) {
	Walk(m, walks, depth, seed, func(s spec.State, d int) bool {
		enc := m.AppendState(nil, s)
		f.Add(enc)
		if d%16 == 0 {
			spliceVarints(enc, math.MaxInt64, func(_ int, mut []byte) { f.Add(bytes.Clone(mut)) })
		}
		return true
	})
	f.Fuzz(func(t *testing.T, enc []byte) {
		s, rest, err := m.DecodeState(enc)
		if err != nil {
			return
		}
		if len(rest) > len(enc) {
			t.Fatalf("%s: DecodeState returned %d remaining bytes of %d", m.Name(), len(rest), len(enc))
		}
		hashEveryWay(m, s)
		s.Vars()
		m.AppendState(nil, s)
	})
}

// hashEveryWay hashes s through every fingerprint path m has, engine-facing
// and oracle.
func hashEveryWay(m spec.Machine, s spec.State) {
	s.Fingerprint()
	pt := spec.PermTableFor(m.NumNodes())
	m.OrbitFingerprint(s, pt, fp.NewOrbitScratch())
	orbit, _ := s.(spec.Orbit)
	for _, p := range pt.NonIdentity {
		if orbit != nil {
			spec.PermutedFingerprint(orbit, p)
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
// to permutation. Both sides are built from the oracles alone (AppendNext
// into a nil buffer, Permute, State.Fingerprint).
func FindNextAsymmetry(m spec.Machine, walks, depth int, seed int64) *Asymmetry {
	type key struct {
		action string
		fp     uint64
	}
	var found *Asymmetry
	Walk(m, walks, depth, seed, func(s spec.State, d int) bool {
		succs := m.AppendNext(s, nil)
		for _, p := range spec.PermTableFor(m.NumNodes()).NonIdentity {
			direct := m.AppendNext(m.Permute(s, p), nil)
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
