package conformance

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/spec/spectest"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// counterMachine is a minimal spec: each client request increments a
// per-node counter. The matching counterProcess mirrors it, with optional
// skew to provoke discrepancies.
type counterState struct {
	vals     []int
	counters spec.Counters
}

func (s *counterState) Fingerprint() uint64 {
	h := fp.New()
	h.WriteInts(s.vals)
	s.counters.Hash(h)
	return h.Sum()
}

func (s *counterState) Schema() *trace.Schema {
	return trace.NewSchema(len(s.vals), []string{"count"}, nil)
}

// VarSlots renders count[i]; the channels are not the specification's.
func (s *counterState) VarSlots(dst []string) {
	s.Schema().Clear(dst)
	for i, v := range s.vals {
		dst[i] = strconv.Itoa(v)
	}
}

type counterMachine struct {
	n      int
	budget spec.Budget
}

func (m *counterMachine) Name() string { return "counter" }

func (m *counterMachine) Init() []spec.State {
	return []spec.State{&counterState{vals: make([]int, m.n)}}
}

func (m *counterMachine) Next(st spec.State) []spec.Succ { return m.AppendNext(st, nil) }

func (m *counterMachine) AppendNext(st spec.State, out []spec.Succ) []spec.Succ {
	s := st.(*counterState)
	if !s.counters.CanRequest(m.budget) {
		return out
	}
	for i := 0; i < m.n; i++ {
		n := &counterState{vals: append([]int(nil), s.vals...), counters: s.counters}
		n.vals[i]++
		n.counters.Requests++
		out = append(out, spec.Succ{
			Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: i, Payload: "inc"},
			State: n,
		})
	}
	return out
}

func (m *counterMachine) Actions() []string { return []string{"Increment"} }

// The fake declares nothing to permute.
func (m *counterMachine) NumNodes() int                            { return 1 }
func (m *counterMachine) Permute(s spec.State, _ []int) spec.State { return s }
func (m *counterMachine) OrbitFingerprint(s spec.State, _ *spec.PermTable, _ *fp.OrbitScratch) (uint64, bool) {
	return s.Fingerprint(), false
}

// Only the request counter moves, and it is the sum of the values.
func (m *counterMachine) AppendState(dst []byte, st spec.State) []byte {
	for _, v := range st.(*counterState).vals {
		dst = append(dst, byte(v))
	}
	return dst
}

func (m *counterMachine) DecodeState(src []byte) (spec.State, []byte, error) {
	if len(src) < m.n {
		return nil, nil, fmt.Errorf("counter: truncated state")
	}
	s := &counterState{vals: make([]int, m.n)}
	for i := range s.vals {
		s.vals[i] = int(src[i])
		s.counters.Requests += int32(s.vals[i])
	}
	return s, src[m.n:], nil
}

func (m *counterMachine) Invariants() []spec.Invariant { return nil }

type counterProcess struct {
	env  vos.Env
	val  int
	skew bool // count by two after the second increment (a seeded defect)
}

func (p *counterProcess) Start(env vos.Env)   { p.env = env; p.val = 0 }
func (p *counterProcess) Receive(int, []byte) {}
func (p *counterProcess) Tick()               {}
func (p *counterProcess) ClientRequest(string) {
	p.val++
	if p.skew && p.val >= 2 {
		p.val++
	}
}
func (p *counterProcess) Fields() []string     { return []string{"count"} }
func (p *counterProcess) Observe(dst []string) { dst[0] = strconv.Itoa(p.val) }

func target(n int, skew bool, resource func(*engine.Cluster) error) *Target {
	return &Target{
		Machine: &counterMachine{n: n, budget: spec.Budget{MaxRequests: 5}},
		NewCluster: func(seed int64) (*engine.Cluster, error) {
			return engine.NewCluster(engine.Config{Nodes: n}, func(id int) vos.Process {
				return &counterProcess{skew: skew}
			})
		},
		ResourceCheck: resource,
	}
}

func TestFakeHonoursContract(t *testing.T) {
	spectest.AssertContract(t, &counterMachine{n: 2, budget: spec.Budget{MaxRequests: 5}}, 10, 6, 1)
}

func TestConformingPairPasses(t *testing.T) {
	rep, err := Run(target(2, false, nil), Options{Walks: 30, WalkDepth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("discrepancy on an aligned pair: %v", rep.Discrepancy)
	}
	if rep.Walks != 30 || rep.EventsChecked == 0 {
		t.Errorf("report = %+v", rep)
	}
}

// TestArityMismatchIsAnError: a specification whose states render another
// number of nodes than the cluster runs is refused; its slots would name
// other nodes' variables.
func TestArityMismatchIsAnError(t *testing.T) {
	tg := target(3, false, nil)
	tg.Machine = &counterMachine{n: 2, budget: spec.Budget{MaxRequests: 5}}
	rep, err := Run(tg, Options{Walks: 3, WalkDepth: 5, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "renders 2 nodes, the cluster runs 3") {
		t.Fatalf("Run = %+v, %v; want the arity error", rep, err)
	}
}

func TestSkewDetectedWithEventPrefix(t *testing.T) {
	rep, err := Run(target(2, true, nil), Options{Walks: 30, WalkDepth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("skewed implementation not detected")
	}
	d := rep.Discrepancy
	if len(d.Step.DiffKeys) == 0 || d.Trace == nil {
		t.Fatalf("discrepancy lacks detail: %+v", d)
	}
	if d.Error() == "" {
		t.Error("empty discrepancy message")
	}
}

func TestResourceCheckRunsPerEvent(t *testing.T) {
	calls := 0
	rc := func(c *engine.Cluster) error {
		calls++
		if calls == 3 {
			return fmt.Errorf("leak detected")
		}
		return nil
	}
	rep, err := Run(target(2, false, rc), Options{Walks: 5, WalkDepth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("resource failure not reported")
	}
	if rep.Discrepancy.Step.Err == nil {
		t.Errorf("resource failure should surface as a step error: %+v", rep.Discrepancy)
	}
	if calls != 3 {
		t.Errorf("resource check ran %d times, want 3", calls)
	}
}

// TestResourceCheckEmitsOneVerdictPerWalk is the regression test for the
// spurious-verdict bug: replaying each step of a walk as its own sub-trace
// made the tracer emit a replay-layer conform verdict after every event of
// every walk, and the replay.steps counter disagreed with non-resource-check
// mode. Both modes must emit exactly one verdict per walk and count the same
// executed steps.
func TestResourceCheckEmitsOneVerdictPerWalk(t *testing.T) {
	run := func(resource bool) (verdicts int, steps int64, walks int) {
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		reg := obs.NewRegistry()
		var rc func(*engine.Cluster) error
		if resource {
			rc = func(*engine.Cluster) error { return nil }
		}
		rep, err := Run(target(2, false, rc), Options{
			Walks: 10, WalkDepth: 5, Seed: 1, Metrics: reg, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("aligned pair diverged: %v", rep.Discrepancy)
		}
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Layer == "replay" && (e.Kind == "conform" || e.Kind == "diverge") {
				verdicts++
			}
		}
		return verdicts, reg.Counter("replay.steps").Value(), rep.Walks
	}

	plainVerdicts, plainSteps, walks := run(false)
	rcVerdicts, rcSteps, _ := run(true)
	if plainVerdicts != walks {
		t.Errorf("plain mode: %d verdicts for %d walks", plainVerdicts, walks)
	}
	if rcVerdicts != walks {
		t.Errorf("resource-check mode emitted %d verdicts for %d walks, want exactly one per walk", rcVerdicts, walks)
	}
	if rcSteps != plainSteps {
		t.Errorf("replay.steps = %d in resource-check mode, %d without — modes must agree", rcSteps, plainSteps)
	}
}

// TestResourceCheckDivergenceStepIndex pins the step index of a resource
// failure to the walk's trace index (it used to be relative to a one-step
// sub-trace before being patched up by the caller).
func TestResourceCheckDivergenceStepIndex(t *testing.T) {
	calls := 0
	rc := func(c *engine.Cluster) error {
		calls++
		if calls == 4 {
			return fmt.Errorf("leak detected")
		}
		return nil
	}
	rep, err := Run(target(2, false, rc), Options{Walks: 5, WalkDepth: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("resource failure not reported")
	}
	if got := rep.Discrepancy.Step.Step; got != 3 {
		t.Errorf("discrepancy step = %d, want 3 (the 4th executed event)", got)
	}
	if ev := rep.Discrepancy.Step.Event; ev.Action != "Increment" {
		t.Errorf("discrepancy event = %v", ev)
	}
}

// TestParallelMatchesSerial is the determinism contract of the worker pool:
// for any worker count the report — walks, events checked, and the first
// discrepancy's walk index, seed, step, event, and diff keys — must be
// byte-identical to a serial run (Options.Workers documents why).
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		skew bool
	}{
		{"first-discrepancy", true},
		{"clean-round", false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var base *Report
			for _, workers := range []int{1, 4, 8} {
				rep, err := Run(target(2, tc.skew, nil), Options{
					Walks: 60, WalkDepth: 5, Seed: 7, Workers: workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if tc.skew == rep.Passed() {
					t.Fatalf("workers=%d: passed=%v with skew=%v", workers, rep.Passed(), tc.skew)
				}
				if base == nil {
					base = rep
					continue
				}
				if rep.Walks != base.Walks || rep.EventsChecked != base.EventsChecked {
					t.Errorf("workers=%d: walks/events = %d/%d, serial = %d/%d",
						workers, rep.Walks, rep.EventsChecked, base.Walks, base.EventsChecked)
				}
				if tc.skew {
					d, bd := rep.Discrepancy, base.Discrepancy
					if d.Walk != bd.Walk || d.Seed != bd.Seed {
						t.Errorf("workers=%d: discrepancy at walk %d (seed %d), serial at walk %d (seed %d)",
							workers, d.Walk, d.Seed, bd.Walk, bd.Seed)
					}
					if d.Step.Step != bd.Step.Step || !d.Step.Event.Matches(bd.Step.Event) {
						t.Errorf("workers=%d: diverging step %d (%v), serial step %d (%v)",
							workers, d.Step.Step, d.Step.Event, bd.Step.Step, bd.Step.Event)
					}
					if fmt.Sprint(d.Step.DiffKeys) != fmt.Sprint(bd.Step.DiffKeys) {
						t.Errorf("workers=%d: diff keys %v, serial %v", workers, d.Step.DiffKeys, bd.Step.DiffKeys)
					}
				}
			}
		})
	}
}

func TestTimeoutStopsRound(t *testing.T) {
	rep, err := Run(target(2, false, nil), Options{Walks: 100000, WalkDepth: 5, Seed: 1, Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Walks >= 100000 {
		t.Errorf("timeout did not stop the round (%d walks)", rep.Walks)
	}
}
