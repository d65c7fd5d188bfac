package replay

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// countProc is a minimal process: each client request increments a counter.
type countProc struct {
	val int
}

func (p *countProc) Start(vos.Env)        { p.val = 0 }
func (p *countProc) Receive(int, []byte)  {}
func (p *countProc) Tick()                {}
func (p *countProc) ClientRequest(string) { p.val++ }
func (p *countProc) Fields() []string     { return []string{"count"} }
func (p *countProc) Observe(dst []string) { dst[0] = strconv.Itoa(p.val) }

func countCluster(t *testing.T, nodes int) *engine.Cluster {
	t.Helper()
	c, err := engine.NewCluster(engine.Config{Nodes: nodes}, func(id int) vos.Process { return &countProc{} })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFinalCompareAfterTrailingInternal is the regression test for the fast
// confirmation mode bug: when a trace ends in an EvInternal event, Convert
// returns ok=false and the loop used to `continue` past the final-state
// comparison entirely, silently confirming diverging replays. The final
// comparison must anchor on the last convertible step instead.
func TestFinalCompareAfterTrailingInternal(t *testing.T) {
	tr := &trace.Trace{
		System: "count",
		Steps: []trace.Step{
			{
				Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"},
				// The spec claims count[0]=2 after one increment; the
				// implementation holds 1, so the final compare must diverge.
				Vars: map[string]string{"count[0]": "2"},
			},
			{
				Event: trace.Event{Type: trace.EvInternal, Action: "SpecBookkeeping", Node: 0},
				Vars:  map[string]string{"count[0]": "2"},
			},
		},
	}
	res, err := Run(tr, countCluster(t, 1), Options{CompareEachStep: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("converted steps = %d, want 1", res.Steps)
	}
	if res.Divergence == nil {
		t.Fatal("fast-mode replay of an internal-terminated trace skipped the final-state comparison")
	}
	if res.Divergence.Step != 0 {
		t.Errorf("divergence step = %d, want 0 (the last convertible step)", res.Divergence.Step)
	}
}

// TestFinalCompareConformingTrailingInternal checks the conforming side: a
// trace ending in internal events whose last convertible step agrees with
// the implementation must still pass in fast mode.
func TestFinalCompareConformingTrailingInternal(t *testing.T) {
	tr := &trace.Trace{
		System: "count",
		Steps: []trace.Step{
			{
				Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"},
				Vars:  map[string]string{"count[0]": "1"},
			},
			{
				Event: trace.Event{Type: trace.EvInternal, Action: "SpecBookkeeping", Node: 0},
				Vars:  map[string]string{"count[0]": "1"},
			},
		},
	}
	res, err := Run(tr, countCluster(t, 1), Options{CompareEachStep: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence != nil {
		t.Fatalf("conforming trace diverged: %s", res.Divergence.Describe())
	}
}

// TestAfterStepHook verifies the per-step hook used by conformance resource
// checks: it runs once per executed event and its error surfaces as a
// divergence at the true trace step index.
func TestAfterStepHook(t *testing.T) {
	tr := &trace.Trace{
		System: "count",
		Steps: []trace.Step{
			{Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"}, Vars: map[string]string{"count[0]": "1"}},
			{Event: trace.Event{Type: trace.EvInternal, Action: "SpecBookkeeping", Node: 0}, Vars: map[string]string{"count[0]": "1"}},
			{Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"}, Vars: map[string]string{"count[0]": "2"}},
			{Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"}, Vars: map[string]string{"count[0]": "3"}},
		},
	}
	calls := 0
	res, err := Run(tr, countCluster(t, 1), Options{
		CompareEachStep: true,
		AfterStep: func(step int, c *engine.Cluster) error {
			calls++
			if calls == 2 {
				return fmt.Errorf("leak detected")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("AfterStep ran %d times, want 2 (executed events only)", calls)
	}
	if res.Divergence == nil || res.Divergence.Err == nil {
		t.Fatal("AfterStep error did not surface as a divergence")
	}
	if res.Divergence.Step != 2 {
		t.Errorf("divergence step = %d, want 2 (the trace index, not the executed-event index)", res.Divergence.Step)
	}
}

func TestConvertMapsEventFields(t *testing.T) {
	ev := trace.Event{Type: trace.EvDeliver, Action: "HandleX", Node: 2, Peer: 1, Index: 3}
	cmd, ok := Convert(ev)
	if !ok {
		t.Fatal("deliver should convert")
	}
	if cmd.Type != trace.EvDeliver || cmd.Node != 2 || cmd.Peer != 1 || cmd.Index != 3 {
		t.Errorf("cmd = %+v", cmd)
	}
	if _, ok := Convert(trace.Event{Type: trace.EvInternal}); ok {
		t.Error("internal events must not convert")
	}
	cmd, _ = Convert(trace.Event{Type: trace.EvTimeout, Node: 1, Payload: "election"})
	if cmd.Payload != "election" {
		t.Errorf("timeout payload = %q", cmd.Payload)
	}
}

func TestStepResultDescribe(t *testing.T) {
	sr := &StepResult{
		Step:     2,
		Event:    trace.Event{Type: trace.EvRequest, Action: "ClientRequest", Node: 0, Payload: "v1"},
		DiffKeys: []string{"commit[0]"},
		SpecVars: map[string]string{"commit[0]": "1"},
		ImplVars: map[string]string{"commit[0]": "0"},
	}
	out := sr.Describe()
	if !strings.Contains(out, "step 3") || !strings.Contains(out, "commit[0]") ||
		!strings.Contains(out, "spec=1") || !strings.Contains(out, "impl=0") {
		t.Errorf("describe = %q", out)
	}
	if !sr.Divergent() {
		t.Error("diff keys should mark divergence")
	}
	if (&StepResult{}).Divergent() {
		t.Error("empty step result must not be divergent")
	}
}

// TestObserveOverrideThroughSchema: an Observe override's map goes into
// slots through the comparison's schema. Its keys in the schema are
// compared, a key outside it is not (even when the trace renders it too),
// and a divergence reports the override's map as the implementation side.
func TestObserveOverrideThroughSchema(t *testing.T) {
	observed := map[string]string{"count[0]": "7", "status[0]": "up", "extra[0]": "impl"}
	override := func(*engine.Cluster) (map[string]string, error) { return observed, nil }
	step := trace.Step{
		Event: trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 0, Payload: "inc"},
		Vars:  map[string]string{"count[0]": "1", "extra[0]": "spec"},
	}
	res, err := Run(&trace.Trace{Steps: []trace.Step{step}}, countCluster(t, 1), Options{CompareEachStep: true, Observe: override})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Divergence
	if d == nil || fmt.Sprint(d.DiffKeys) != "[count[0]]" {
		t.Fatalf("divergence = %+v, want count[0] only", d)
	}
	if !maps.Equal(d.ImplVars, observed) || !maps.Equal(d.SpecVars, step.Vars) {
		t.Errorf("reported maps spec %v impl %v, want the trace's and the override's", d.SpecVars, d.ImplVars)
	}

	observed["count[0]"] = "1"
	if res, err = Run(&trace.Trace{Steps: []trace.Step{step}}, countCluster(t, 1), Options{CompareEachStep: true, Observe: override}); err != nil || res.Divergence != nil {
		t.Fatalf("a key outside the schema was compared: %v %+v", err, res.Divergence)
	}
}

// TestIgnoreVarsMask: IgnoreVars is a slot mask of the checker's schema —
// the cluster's own in Run, the specification's extended by the cluster's
// fields under conformance — and a masked key never diverges.
func TestIgnoreVarsMask(t *testing.T) {
	inc := trace.Event{Type: trace.EvRequest, Action: "Increment", Node: 1, Payload: "inc"}
	tr := &trace.Trace{Steps: []trace.Step{{Event: inc, Vars: map[string]string{"count[0]": "5", "count[1]": "9", "net[0->1]": "0"}}}}
	res, err := Run(tr, countCluster(t, 2), Options{CompareEachStep: true, IgnoreVars: []string{"count[1]"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Divergence; d == nil || fmt.Sprint(d.DiffKeys) != "[count[0]]" {
		t.Fatalf("divergence = %+v, want count[0] only", d)
	}

	c := countCluster(t, 2)
	s := trace.NewSchema(2, []string{"count"}, []string{"spec only"}).With(c.Fields())
	k := NewChecker(s, Options{IgnoreVars: []string{"count[0]", "count[1]"}})
	k.Attach(c)
	spec := s.Slots(nil, map[string]string{"count[0]": "5", "count[1]": "9", "spec only": "x"})
	sr, err := k.Step(0, inc, spec, nil)
	if err != nil || sr != nil {
		t.Fatalf("masked keys diverged: %v %+v", err, sr)
	}
	spec[s.Field("status")] = "crashed"
	if sr, _ = k.Step(1, inc, spec, nil); sr == nil || fmt.Sprint(sr.DiffKeys) != "[status[0]]" {
		t.Fatalf("divergence = %+v, want status[0]", sr)
	}
	if sr.SpecVars["spec only"] != "x" || sr.ImplVars["count[1]"] != "2" || len(sr.ImplVars) != 6 {
		t.Errorf("maps rendered from the slots: spec %v impl %v", sr.SpecVars, sr.ImplVars)
	}
}
