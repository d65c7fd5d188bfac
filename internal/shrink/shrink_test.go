package shrink

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/specs/toy"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// incState / incMachine: each client request increments a per-node counter.
// The "NoOverflow" invariant bounds node 0's counter, so a violating walk
// typically carries increments to other nodes that ddmin must strip.
type incState struct {
	vals     []int
	spiked   bool
	counters spec.Counters
}

func (s *incState) Fingerprint() uint64 {
	h := fp.New()
	h.WriteInts(s.vals)
	if s.spiked {
		h.WriteInt(1)
	}
	s.counters.Hash(h)
	return h.Sum()
}

func (s *incState) Schema() *trace.Schema {
	return trace.NewSchema(len(s.vals), []string{"count"}, nil)
}

// VarSlots renders count[i]; the channels are not the specification's.
func (s *incState) VarSlots(dst []string) {
	s.Schema().Clear(dst)
	for i, v := range s.vals {
		dst[i] = strconv.Itoa(v)
	}
}

func (s *incState) clone() *incState {
	return &incState{vals: append([]int(nil), s.vals...), spiked: s.spiked, counters: s.counters}
}

// incMachine's gate: when gated, the internal "Spike" action is enabled once
// count[0] >= 2 and flags the violation; otherwise the invariant fires
// directly at count[0] >= 3. The gated variant forces ddmin through invalid
// candidates (removing an increment disables Spike).
type incMachine struct {
	n      int
	gated  bool
	budget spec.Budget
}

func (m *incMachine) Name() string { return "inc" }

func (m *incMachine) Init() []spec.State {
	return []spec.State{&incState{vals: make([]int, m.n)}}
}

func (m *incMachine) Next(st spec.State) []spec.Succ { return m.AppendNext(st, nil) }

func (m *incMachine) AppendNext(st spec.State, out []spec.Succ) []spec.Succ {
	s := st.(*incState)
	if s.counters.CanRequest(m.budget) {
		for i := 0; i < m.n; i++ {
			n := s.clone()
			n.vals[i]++
			n.counters.Requests++
			out = append(out, spec.Succ{
				Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: i, Payload: "inc"},
				State: n,
			})
		}
	}
	if m.gated && !s.spiked && s.vals[0] >= 2 {
		n := s.clone()
		n.spiked = true
		out = append(out, spec.Succ{
			Event: trace.Event{Type: trace.EvInternal, Action: "Spike", Node: 0},
			State: n,
		})
	}
	return out
}

func (m *incMachine) Actions() []string { return []string{"Increment", "Spike"} }

// The fake declares nothing to permute.
func (m *incMachine) NumNodes() int                            { return 1 }
func (m *incMachine) Permute(s spec.State, _ []int) spec.State { return s }
func (m *incMachine) OrbitFingerprint(s spec.State, _ *spec.PermTable, _ *fp.OrbitScratch) (uint64, bool) {
	return s.Fingerprint(), false
}

// Only the request counter moves, and it is the sum of the values.
func (m *incMachine) AppendState(dst []byte, st spec.State) []byte {
	s := st.(*incState)
	for _, v := range s.vals {
		dst = append(dst, byte(v))
	}
	if s.spiked {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func (m *incMachine) DecodeState(src []byte) (spec.State, []byte, error) {
	if len(src) <= m.n {
		return nil, nil, fmt.Errorf("inc: truncated state")
	}
	if src[m.n] > 1 {
		return nil, nil, fmt.Errorf("inc: spike flag %#x is not a boolean", src[m.n])
	}
	s := &incState{vals: make([]int, m.n), spiked: src[m.n] == 1}
	for i := range s.vals {
		s.vals[i] = int(src[i])
		s.counters.Requests += int32(s.vals[i])
	}
	return s, src[m.n+1:], nil
}

func (m *incMachine) Invariants() []spec.Invariant {
	if m.gated {
		return []spec.Invariant{{
			Name: "NoSpike",
			Check: func(st spec.State) error {
				if st.(*incState).spiked {
					return fmt.Errorf("spiked")
				}
				return nil
			},
		}}
	}
	return []spec.Invariant{{
		Name: "NoOverflow",
		Check: func(st spec.State) error {
			if v := st.(*incState).vals[0]; v >= 3 {
				return fmt.Errorf("count[0] = %d overflows", v)
			}
			return nil
		},
	}}
}

// violatingWalk returns the first seeded walk that violates, so tests stay
// deterministic without hardcoding seeds.
func violatingWalk(t *testing.T, m spec.Machine, from int64) (*explorer.WalkResult, int64) {
	t.Helper()
	for seed := from; seed < from+200; seed++ {
		sim := explorer.NewSimulator(m, explorer.SimOptions{
			Seed: seed, CheckInvariants: true, RecordVars: true,
		})
		if w := sim.Walk(seed); w.Violation != nil {
			return w, seed
		}
	}
	t.Fatal("no violating walk in 200 seeds")
	return nil, 0
}

func TestFakeHonoursContract(t *testing.T) {
	spectest.AssertContract(t, &incMachine{n: 3, gated: true, budget: spec.Budget{MaxRequests: 9}}, 10, 10, 1)
}

func TestMinimizeTable(t *testing.T) {
	cases := []struct {
		name    string
		machine *incMachine
		// invariant pins the oracle; wantLen the 1-minimal length.
		invariant   string
		wantLen     int
		wantInvalid bool // expect invalid candidates along the way
	}{
		{
			name:      "overflow-drops-unrelated-increments",
			machine:   &incMachine{n: 3, budget: spec.Budget{MaxRequests: 9}},
			invariant: "NoOverflow",
			wantLen:   3, // exactly three Increment(node 0)
		},
		{
			name:        "gated-spike-keeps-enabling-prefix",
			machine:     &incMachine{n: 3, gated: true, budget: spec.Budget{MaxRequests: 9}},
			invariant:   "NoSpike",
			wantLen:     3, // Increment(0), Increment(0), Spike
			wantInvalid: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, _ := violatingWalk(t, tc.machine, 1)
			if len(w.Trace.Steps) <= tc.wantLen {
				t.Fatalf("walk already minimal (%d steps) — test needs a longer walk", len(w.Trace.Steps))
			}
			reg := obs.NewRegistry()
			res, err := Minimize(tc.machine, w.Trace, InvariantOracle(tc.machine, tc.invariant), Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if res.MinimizedLen != tc.wantLen {
				t.Fatalf("minimized to %d events, want %d:\n%s", res.MinimizedLen, tc.wantLen, res.Trace.Format(false))
			}
			if res.Removed != res.OriginalLen-res.MinimizedLen {
				t.Errorf("Removed = %d, want %d", res.Removed, res.OriginalLen-res.MinimizedLen)
			}
			if got := reg.Counter("shrink.attempts").Value(); got != int64(res.Attempts) {
				t.Errorf("shrink.attempts metric = %d, result says %d", got, res.Attempts)
			}
			if reg.Counter("phase.shrink_ns").Value() <= 0 {
				t.Error("phase.shrink timer not recorded")
			}
			if tc.wantInvalid && res.Invalid == 0 {
				t.Error("expected invalid candidates (gated action) but saw none")
			}

			// The minimized trace still violates the pinned invariant.
			cand, ok := Replay(tc.machine, res.Trace.Init, res.Trace.Events(), true)
			if !ok {
				t.Fatal("minimized trace is not a valid spec execution")
			}
			if !InvariantOracle(tc.machine, tc.invariant)(cand) {
				t.Fatal("minimized trace no longer violates the invariant")
			}

			// 1-minimality: removing any single remaining event loses the
			// violation (or legality).
			events := res.Trace.Events()
			for i := range events {
				sub := append(append([]trace.Event(nil), events[:i]...), events[i+1:]...)
				c, ok := Replay(tc.machine, res.Trace.Init, sub, true)
				if ok && InvariantOracle(tc.machine, tc.invariant)(c) {
					t.Fatalf("not 1-minimal: event %d (%s) is removable", i, events[i])
				}
			}
		})
	}
}

func TestMinimizeIsDeterministic(t *testing.T) {
	m := &incMachine{n: 3, budget: spec.Budget{MaxRequests: 9}}
	oracle := func() Oracle { return InvariantOracle(m, "NoOverflow") }

	// Same walk, minimized twice: identical traces.
	w, seed := violatingWalk(t, m, 1)
	r1, err := Minimize(m, w.Trace, oracle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(m, w.Trace, oracle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace.Format(true) != r2.Trace.Format(true) {
		t.Error("same input minimized to different traces")
	}

	// Walks from different seeds: the 1-minimal failure is the same event
	// sequence (three increments of node 0), so minimization converges.
	w2, _ := violatingWalk(t, m, seed+1)
	r3, err := Minimize(m, w2.Trace, oracle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace.Format(false) != r3.Trace.Format(false) {
		t.Errorf("different seeds minimized to different event sequences:\n%s\nvs\n%s",
			r1.Trace.Format(false), r3.Trace.Format(false))
	}
}

func TestMinimizeAlreadyMinimal(t *testing.T) {
	m := &incMachine{n: 3, budget: spec.Budget{MaxRequests: 9}}
	ev := trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"}
	cand, ok := Replay(m, nil, []trace.Event{ev, ev, ev}, true)
	if !ok {
		t.Fatal("hand-built trace invalid")
	}
	res, err := Minimize(m, cand.Trace, InvariantOracle(m, "NoOverflow"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.MinimizedLen != 3 {
		t.Errorf("minimal trace changed: removed %d, len %d", res.Removed, res.MinimizedLen)
	}
}

func TestMinimizeRejectsNonReproducingBaseline(t *testing.T) {
	m := &incMachine{n: 3, budget: spec.Budget{MaxRequests: 9}}
	ev := trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 1, Payload: "inc"}
	cand, _ := Replay(m, nil, []trace.Event{ev}, true)
	if _, err := Minimize(m, cand.Trace, InvariantOracle(m, "NoOverflow"), Options{}); err == nil {
		t.Fatal("baseline that does not reproduce must be rejected")
	}
}

func TestReplayRejectsDisabledEvents(t *testing.T) {
	m := &incMachine{n: 2, budget: spec.Budget{MaxRequests: 2}}
	inc := trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"}
	if _, ok := Replay(m, nil, []trace.Event{inc, inc, inc}, true); ok {
		t.Error("budget-exhausted event accepted")
	}
	bogus := trace.Event{Type: trace.EvTimeout, Action: "NoSuchAction", Node: 0}
	if _, ok := Replay(m, nil, []trace.Event{bogus}, true); ok {
		t.Error("unknown event accepted")
	}
}

// TestReplayKeepsEveryState: Replay hands back every state it stepped
// through (the oracle judges them), while stepping through one reused
// AppendNext buffer whose slack the machine recycles. Each must still be the
// state its trace step fingerprints — a state left in the buffer would be
// overwritten by the next enumeration.
func TestReplayKeepsEveryState(t *testing.T) {
	m := &toy.LostUpdate{N: 4}
	w := explorer.NewSimulator(m, explorer.SimOptions{}).Walk(3)
	cand, ok := Replay(m, nil, w.Trace.Events(), false)
	if !ok || len(cand.States) != len(w.Trace.Steps) || len(cand.States) < 5 {
		t.Fatalf("replay of a %d-step walk: ok=%v, %d states", len(w.Trace.Steps), ok, len(cand.States))
	}
	for i, st := range cand.States {
		if got, want := st.Fingerprint(), cand.Trace.Steps[i].Fingerprint; got != want {
			t.Errorf("state %d now fingerprints %#x, its step recorded %#x", i, got, want)
		}
	}
}

// incProc mirrors incMachine at the implementation level; skewAfter > 0
// seeds a defect (the node over-counts from that increment on).
type incProc struct {
	val       int
	skewAfter int
}

func (p *incProc) Start(vos.Env)       { p.val = 0 }
func (p *incProc) Receive(int, []byte) {}
func (p *incProc) Tick()               {}
func (p *incProc) ClientRequest(string) {
	p.val++
	if p.skewAfter > 0 && p.val >= p.skewAfter {
		p.val++
	}
}
func (p *incProc) Fields() []string     { return []string{"count"} }
func (p *incProc) Observe(dst []string) { dst[0] = strconv.Itoa(p.val) }

func newIncCluster(nodes, skewAfter int) func(seed int64) (*engine.Cluster, error) {
	return func(seed int64) (*engine.Cluster, error) {
		return engine.NewCluster(engine.Config{Nodes: nodes}, func(id int) vos.Process {
			return &incProc{skewAfter: skewAfter}
		})
	}
}

// TestMinimizedViolationConfirmsAtImplementationLevel closes the §3.4 loop:
// the ddmin result is handed to replay.ConfirmBug against a fresh cluster
// and must reproduce every specification state.
func TestMinimizedViolationConfirmsAtImplementationLevel(t *testing.T) {
	m := &incMachine{n: 3, budget: spec.Budget{MaxRequests: 9}}
	w, _ := violatingWalk(t, m, 1)
	res, err := Minimize(m, w.Trace, InvariantOracle(m, "NoOverflow"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := newIncCluster(3, 0)(1)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := replay.ConfirmBug(res.Trace, cluster, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.Confirmed {
		t.Fatalf("minimized trace did not confirm: %s", conf.Divergence.Describe())
	}
}

// TestDivergenceOracleShrinksDiscrepancyTrace minimizes a conformance-style
// divergence: the implementation over-counts from the second increment of a
// node, so the minimal diverging trace is two increments of one node.
func TestDivergenceOracleShrinksDiscrepancyTrace(t *testing.T) {
	m := &incMachine{n: 2, budget: spec.Budget{MaxRequests: 8}}
	newCluster := newIncCluster(2, 2)

	// Find a diverging walk the long way, as conformance.Run would.
	var diverging *trace.Trace
	var want *replay.StepResult
	for seed := int64(1); seed < 50 && diverging == nil; seed++ {
		sim := explorer.NewSimulator(m, explorer.SimOptions{Seed: seed, RecordVars: true})
		w := sim.Walk(seed)
		cl, err := newCluster(seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := replay.Run(w.Trace, cl, replay.Options{CompareEachStep: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Divergence != nil && len(w.Trace.Steps) > 2 {
			diverging, want = w.Trace, r.Divergence
		}
	}
	if diverging == nil {
		t.Fatal("no diverging walk found")
	}

	res, err := Minimize(m, diverging, DivergenceOracle(newCluster, 1, replay.Options{}, want), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinimizedLen != 2 {
		t.Fatalf("minimized divergence has %d events, want 2:\n%s", res.MinimizedLen, res.Trace.Format(false))
	}
	ev := res.Trace.Steps[0].Event
	if res.Trace.Steps[1].Event.Node != ev.Node {
		t.Error("minimal divergence should be two increments of the same node")
	}
	// The preserved diff key names the skewed node.
	cl, _ := newCluster(1)
	r, err := replay.Run(res.Trace, cl, replay.Options{CompareEachStep: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Divergence == nil || !sameKeys(r.Divergence.DiffKeys, want.DiffKeys) {
		t.Errorf("minimized trace does not reproduce the original diff keys %v", want.DiffKeys)
	}
}
