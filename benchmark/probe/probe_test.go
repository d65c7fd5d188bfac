package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
)

func craft(t *testing.T, bugs bugdb.Set) *sandtable.SandTable {
	t.Helper()
	sys, err := integrations.Get("craft")
	if err != nil {
		t.Fatal(err)
	}
	return sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugs)
}

// signature renders what the decorator must not change: the counters, the
// violation set and the whole coverage profile.
func signature(t *testing.T, res *explorer.Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "distinct=%d transitions=%d dedup=%d depth=%d stop=%s\n",
		res.DistinctStates, res.Transitions, res.DedupHits, res.MaxDepth, res.StopReason)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "violation d=%d %s: %v\n", v.Depth, v.Invariant, v.Err)
	}
	cover, err := json.Marshal(res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(cover)
	return b.String()
}

func run(m spec.Machine, opts explorer.Options) (*explorer.Result, map[string]any) {
	reg := obs.NewRegistry()
	opts.Workers = 1
	opts.Cover = true
	opts.Metrics = reg
	return explorer.NewChecker(m, opts).Run(), reg.Snapshot()
}

func TestWrappedExplorationMatchesBare(t *testing.T) {
	cases := []struct {
		name string
		bugs bugdb.Set
		opts explorer.Options
	}{
		{"fixed", bugdb.NoBugs(), explorer.Options{Symmetry: true, MaxStates: 20000}},
		{"violating", bugdb.VerificationBugs("craft"), explorer.Options{Symmetry: true, MaxDepth: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := craft(t, tc.bugs)
			bare, _ := run(st.Machine(), tc.opts)

			p, err := Wrap(st.Machine(), []int{0, 5, 50})
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			tr := obs.NewTracer(io.Discard)
			tr.Tee(func(e obs.Event) {
				if e.Kind == "level" {
					var d int
					fmt.Sscan(e.Detail["depth"], &d)
					p.MarkLevel(d)
				}
			})
			opts.Tracer = tr
			p.Start()
			wrapped, snap := run(p, opts)
			wall := p.Stop()

			if got, want := signature(t, wrapped), signature(t, bare); got != want {
				t.Fatalf("wrapped run differs from bare run\n got: %.400s\nwant: %.400s", got, want)
			}
			if tc.name == "violating" && len(bare.Violations) == 0 {
				t.Fatal("the violating case found no violation: it checks nothing")
			}
			// The fast canonicalization path must survive the wrapper.
			if n, _ := snap["explorer.canonical.orbit"].(int64); n <= 0 {
				t.Errorf("explorer.canonical.orbit = %d through the wrapper, want > 0", n)
			}
			if n, _ := snap["explorer.canonical.flat"].(int64); n != 0 {
				t.Errorf("explorer.canonical.flat = %d through the wrapper, want 0", n)
			}

			// The recorded stream is the explorer's own accounting.
			if int64(len(p.Keys)) != wrapped.Transitions {
				t.Errorf("recorded %d keys, explorer counted %d transitions", len(p.Keys), wrapped.Transitions)
			}
			var succs int64
			for _, e := range p.Expansions[:expansionsBefore(p)] {
				succs += int64(e.Succs)
			}
			if succs != wrapped.Transitions {
				t.Errorf("expansions sum to %d successors, want %d", succs, wrapped.Transitions)
			}
			if len(p.Samples) != 3 {
				t.Errorf("kept %d sampled states, want 3", len(p.Samples))
			}
			if len(p.Levels) != len(wrapped.Cover.Levels) {
				// Cover has a depth-0 entry where the probe has its tail.
				t.Errorf("%d probe levels, %d cover levels", len(p.Levels), len(wrapped.Cover.Levels))
			}
			var busy int64
			for k := Kind(0); k < NumKinds; k++ {
				busy += p.Total(k).BusyNs
			}
			if busy <= 0 || busy > wall {
				t.Errorf("spans cover %d ns of a %d ns run", busy, wall)
			}
			if p.Total(AppendNext).Items != succs+tailSuccs(p) {
				t.Errorf("AppendNext items %d, want %d", p.Total(AppendNext).Items, succs+tailSuccs(p))
			}
		})
	}
}

// expansionsBefore is the number of expansions that fed the key stream: the
// tail's belong to counterexample reconstruction.
func expansionsBefore(p *Machine) int {
	return len(p.Expansions) - int(p.Levels[len(p.Levels)-1].Spans[AppendNext].Calls)
}

func tailSuccs(p *Machine) int64 {
	return p.Levels[len(p.Levels)-1].Spans[AppendNext].Items
}

func TestCodecRoundTripKeepsFingerprints(t *testing.T) {
	st := craft(t, bugdb.NoBugs())
	bare := st.Machine()
	p, err := Wrap(st.Machine(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	states := bare.Init()
	for i := 0; i < 200 && i < len(states); i++ {
		for _, su := range bare.Next(states[i]) {
			states = append(states, su.State)
		}
	}
	for i, s := range states {
		enc := p.AppendState(nil, s)
		dec, rest, err := p.DecodeState(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("state %d: decode: %v (%d bytes left)", i, err, len(rest))
		}
		if dec.Fingerprint() != s.Fingerprint() {
			t.Fatalf("state %d: fingerprint changed across the codec", i)
		}
		tab := spec.PermTableFor(p.NumNodes())
		a, _ := p.OrbitFingerprint(dec, tab, &p.scratch)
		b, _ := bare.(spec.OrbitHasher).OrbitFingerprint(s, tab, &p.scratch)
		if a != b {
			t.Fatalf("state %d: canonical fingerprint changed across the codec", i)
		}
	}
	p.Stop()
	if enc, dec := p.Total(Encode), p.Total(Decode); enc.Calls != int64(len(states)) || enc.Items != dec.Items {
		t.Errorf("codec spans: %+v encode, %+v decode, want %d calls and equal bytes", enc, dec, len(states))
	}
}

type bareMachine struct{ spec.Machine }

func TestWrapRefusesMachineWithoutFastPaths(t *testing.T) {
	st := craft(t, bugdb.NoBugs())
	if _, err := Wrap(bareMachine{st.Machine()}, nil); err == nil {
		t.Fatal("Wrap accepted a machine that implements none of the optional interfaces")
	}
}
