package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Trace {
	return &Trace{
		System: "demo",
		Config: map[string]int{"MaxTimeouts": 3},
		Init:   map[string]string{"x": "0"},
		Steps: []Step{
			{Event: Event{Type: EvTimeout, Action: "TimeoutElection", Node: 0, Payload: "election"}, Vars: map[string]string{"x": "1"}, Fingerprint: 10},
			{Event: Event{Type: EvDeliver, Action: "HandleRequestVote", Node: 1, Peer: 0}, Vars: map[string]string{"x": "2"}, Fingerprint: 20},
			{Event: Event{Type: EvPartition, Action: "NetworkPartition", Node: 0, Peer: 1}, Fingerprint: 30},
			{Event: Event{Type: EvRequest, Action: "ClientRequest", Node: 1, Payload: "v1"}, Fingerprint: 40},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.System != tr.System || got.Depth() != tr.Depth() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Steps {
		if got.Steps[i].Event.String() != tr.Steps[i].Event.String() {
			t.Errorf("step %d differs", i)
		}
		if got.Steps[i].Fingerprint != tr.Steps[i].Fingerprint {
			t.Errorf("fingerprint %d differs", i)
		}
	}
}

func TestEventString(t *testing.T) {
	cases := map[string]Event{
		"HandleRequestVote 0->1":      {Type: EvDeliver, Action: "HandleRequestVote", Node: 1, Peer: 0},
		"TimeoutElection n2 election": {Type: EvTimeout, Action: "TimeoutElection", Node: 2, Payload: "election"},
		"NodeCrash n1":                {Type: EvCrash, Action: "NodeCrash", Node: 1},
		"NetworkPartition n0|n2":      {Type: EvPartition, Action: "NetworkPartition", Node: 0, Peer: 2},
		"DropMessage 1->0 [2]":        {Type: EvDrop, Action: "DropMessage", Node: 0, Peer: 1, Index: 2},
	}
	for want, ev := range cases {
		if got := ev.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestFormatShowsChangedVars(t *testing.T) {
	out := sample().Format(true)
	if !strings.Contains(out, "x = 1") || !strings.Contains(out, "x = 2") {
		t.Errorf("format missing changed vars:\n%s", out)
	}
	if !strings.Contains(out, "4 events") {
		t.Errorf("format missing event count")
	}
}

func TestDiagramRendersArrowsAndLocalEvents(t *testing.T) {
	d := sample().Diagram(2, nil)
	if !strings.Contains(d, "n0") || !strings.Contains(d, "n1") {
		t.Error("missing node headers")
	}
	if !strings.Contains(d, ">") {
		t.Error("missing delivery arrow")
	}
	if !strings.Contains(d, "PARTITION") {
		t.Error("missing partition annotation")
	}
	if !strings.Contains(d, "*") {
		t.Error("missing local event marker")
	}
	// Every row must have consistent width (column alignment).
	lines := strings.Split(strings.TrimRight(d, "\n"), "\n")
	for _, l := range lines[1:] {
		if len(l) > 2*28 {
			t.Errorf("row too wide (%d): %q", len(l), l)
		}
	}
}

func TestEventMatches(t *testing.T) {
	base := Event{Type: EvDeliver, Action: "HandleX", Node: 1, Peer: 0, Index: 2, Payload: "p"}
	if !base.Matches(base) {
		t.Error("event does not match itself")
	}
	withDetail := base
	withDetail.Detail = map[string]string{"note": "x"}
	if !base.Matches(withDetail) {
		t.Error("detail must not affect matching")
	}
	for _, mut := range []func(*Event){
		func(e *Event) { e.Type = EvTimeout },
		func(e *Event) { e.Action = "HandleY" },
		func(e *Event) { e.Node = 2 },
		func(e *Event) { e.Peer = 1 },
		func(e *Event) { e.Index = 0 },
		func(e *Event) { e.Payload = "q" },
	} {
		ev := base
		mut(&ev)
		if base.Matches(ev) {
			t.Errorf("mutated event %v must not match %v", ev, base)
		}
	}
}

func TestEventsAccessor(t *testing.T) {
	evs := sample().Events()
	if len(evs) != 4 || evs[0].Action != "TimeoutElection" {
		t.Errorf("events = %v", evs)
	}
}
