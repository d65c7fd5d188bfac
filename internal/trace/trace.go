// Package trace defines the event and trace formats shared between the
// specification-level explorer and the implementation-level execution engine.
//
// A specification-level exploration produces a Trace: the event sequence that
// drove the specification state machine plus, for each step, the values of
// the specification variables after the step. SandTable converts trace events
// into deterministic-execution commands (conformance checking, §3.2, and bug
// confirmation, §3.4 of the paper), so the event vocabulary here mirrors the
// node-level events the paper's engine controls: message delivery, timeouts,
// client requests, node crashes/restarts, and network failures.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// EventType enumerates the node-level event kinds SandTable schedules.
type EventType string

// Event kinds. Deliver/Timeout/Request/Crash/Restart are common to all
// systems; Partition/Recover apply to the TCP failure model; Drop/Duplicate
// and out-of-order delivery (Deliver with Index > 0) apply to UDP semantics.
const (
	EvDeliver EventType = "DeliverMessage"
	EvTimeout EventType = "Timeout"
	EvRequest EventType = "ClientRequest"
	EvCrash   EventType = "NodeCrash"
	// EvCrashDirty is a crash with realistic durability: the payload names
	// the vos.CrashMode ("lose-unsynced" or "torn-batch") deciding the fate
	// of the node's unsynced write journal.
	EvCrashDirty EventType = "NodeCrashDirty"
	EvRestart    EventType = "NodeStart"
	EvPartition  EventType = "NetworkPartition"
	EvRecover    EventType = "NetworkRecover"
	EvDrop       EventType = "MessageDrop"
	EvDuplicate  EventType = "MessageDuplicate"
	EvInternal   EventType = "Internal"
)

// Event is one scheduled node-level event. Node is the event's primary node
// (the destination for deliveries, the crashing/restarting node, the timeout
// owner). Peer is the counterpart (source node for deliveries; the other
// side of a partition). Index selects a buffered message for UDP semantics
// (0 = head, which is the only legal choice under TCP semantics). Payload
// carries the client-request value or the timeout kind.
type Event struct {
	Type    EventType         `json:"type"`
	Action  string            `json:"action"`
	Node    int               `json:"node"`
	Peer    int               `json:"peer,omitempty"`
	Index   int               `json:"index,omitempty"`
	Payload string            `json:"payload,omitempty"`
	Detail  map[string]string `json:"detail,omitempty"`
}

// String renders the event compactly for logs and counterexample listings.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", e.Action)
	switch e.Type {
	case EvDeliver:
		fmt.Fprintf(&b, " %d->%d", e.Peer, e.Node)
		if e.Index > 0 {
			fmt.Fprintf(&b, " [%d]", e.Index)
		}
	case EvTimeout:
		fmt.Fprintf(&b, " n%d %s", e.Node, e.Payload)
	case EvRequest:
		fmt.Fprintf(&b, " n%d %q", e.Node, e.Payload)
	case EvCrash, EvRestart:
		fmt.Fprintf(&b, " n%d", e.Node)
	case EvCrashDirty:
		fmt.Fprintf(&b, " n%d %s", e.Node, e.Payload)
	case EvPartition, EvRecover:
		fmt.Fprintf(&b, " n%d|n%d", e.Node, e.Peer)
	case EvDrop, EvDuplicate:
		fmt.Fprintf(&b, " %d->%d [%d]", e.Peer, e.Node, e.Index)
	}
	return b.String()
}

// Matches reports whether two events denote the same scheduled action:
// equal type, action, nodes, buffered-message index, and payload. Detail is
// ignored — it carries free-form annotations, not scheduling identity. The
// trace minimizer uses this to guide candidate sub-traces through the
// specification machine.
func (e Event) Matches(o Event) bool {
	return e.Type == o.Type && e.Action == o.Action && e.Node == o.Node &&
		e.Peer == o.Peer && e.Index == o.Index && e.Payload == o.Payload
}

// Step is one trace entry: the event taken and the specification state
// (rendered variable map and fingerprint) reached after the event.
type Step struct {
	Event       Event             `json:"event"`
	Vars        map[string]string `json:"vars,omitempty"`
	Fingerprint uint64            `json:"fingerprint"`
}

// Trace is a full specification-level execution: system name, the model
// configuration it was generated under, the initial state, and the steps.
type Trace struct {
	System string            `json:"system"`
	Config map[string]int    `json:"config,omitempty"`
	Init   map[string]string `json:"init,omitempty"`
	Steps  []Step            `json:"steps"`
}

// Events returns just the event sequence of the trace.
func (t *Trace) Events() []Event {
	evs := make([]Event, len(t.Steps))
	for i, s := range t.Steps {
		evs[i] = s.Event
	}
	return evs
}

// Depth returns the number of events in the trace.
func (t *Trace) Depth() int { return len(t.Steps) }

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Decode reads a JSON trace.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	return &t, nil
}

// Format renders a human-readable counterexample listing: one line per step
// with the event, followed (optionally) by the variables that changed.
func (t *Trace) Format(showVars bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace for %s (%d events)\n", t.System, len(t.Steps))
	prev := t.Init
	for i, s := range t.Steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s.Event.String())
		if showVars && s.Vars != nil {
			for _, k := range sortedKeys(s.Vars) {
				if prev == nil || prev[k] != s.Vars[k] {
					fmt.Fprintf(&b, "       %s = %s\n", k, s.Vars[k])
				}
			}
			prev = s.Vars
		}
	}
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
