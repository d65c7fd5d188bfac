package sandtable_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// maxFuzzSteps bounds the events one input may replay: each is an engine
// command, so a longer trace only makes the run slower, not more hostile.
const maxFuzzSteps = 64

// FuzzReplayTrace feeds counterexample files to what `sandtable replay
// -trace` does with them: trace.Decode, then RunReplay on a fresh craft
// cluster. The seeds are a real CRaft#4 counterexample and four hand edits
// of its first event — node 99, node -5, peer 99, index 2^40. No input may
// panic; a trace that does not replay either fails with an error that names
// its step or diverges at a step whose report names the event.
func FuzzReplayTrace(f *testing.F) {
	set := sandtable.Defaults("replay")
	set.Bug = "CRaft#4"
	st := session(f, "craft", set)
	out, err := st.RunCheck(context.Background(), sandtable.Settings{Workers: 1}, sandtable.Sinks{})
	if err != nil || out.Trace == nil {
		f.Fatalf("no CRaft#4 counterexample: %v", err)
	}
	raw, err := json.Marshal(out.Trace)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, edit := range []func(*trace.Event){
		func(ev *trace.Event) { ev.Node = 99 },
		func(ev *trace.Event) { ev.Node = -5 },
		func(ev *trace.Event) { ev.Peer = 99 },
		func(ev *trace.Event) { ev.Index = 1 << 40 },
	} {
		var tr trace.Trace
		if err := json.Unmarshal(raw, &tr); err != nil {
			f.Fatal(err)
		}
		edit(&tr.Steps[0].Event)
		edited, err := json.Marshal(&tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(edited)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := trace.Decode(bytes.NewReader(raw))
		if err != nil || len(tr.Steps) > maxFuzzSteps {
			return
		}
		out, err := st.RunReplay(context.Background(), tr, set, sandtable.Sinks{})
		if err != nil {
			if !strings.Contains(err.Error(), "step") {
				t.Fatalf("replay failed without naming a step: %v", err)
			}
			return
		}
		if d := out.Replay.Divergence; d != nil {
			if d.Step < 0 || d.Step >= len(tr.Steps) || d.Event.String() != tr.Steps[d.Step].Event.String() {
				t.Fatalf("divergence at step %d names %v, trace has %d steps", d.Step, d.Event, len(tr.Steps))
			}
			if !strings.Contains(d.Describe(), d.Event.String()) {
				t.Fatalf("divergence report does not name the event %v: %s", d.Event, d.Describe())
			}
		}
	})
}
