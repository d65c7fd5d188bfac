// Package shrink minimizes counterexample and divergence traces with delta
// debugging (Zeller & Hildebrandt's ddmin): given a specification-level
// trace that reproduces a failure — an invariant violation found by the
// explorer, or a spec/impl divergence found by conformance checking — it
// searches subsets of removable events, revalidates every candidate as a
// real execution of the specification machine (guided replay through
// spec.Machine), and keeps the shortest event sequence for which the
// failure oracle still fires.
//
// Minimized traces are what make the paper's §3.4 confirmation loop fast in
// practice: the artifact handed to replay.ConfirmBug — and ultimately to the
// user — is 1-minimal, meaning no single remaining event can be removed
// without losing the failure. BFS counterexamples are already depth-minimal
// and typically pass through unchanged; the big wins are random-walk
// violations (simulation mode) and conformance divergence traces, whose
// walks carry events unrelated to the failure (see "eXtreme Modelling in
// Practice" and trace-validation practice generally: short divergence
// traces are what make spec/impl alignment iterations fast).
package shrink

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Candidate is a revalidated sub-trace: a real execution of the
// specification machine built from a subsequence of the original events.
type Candidate struct {
	// Trace is the rebuilt trace with variables and fingerprints recomputed
	// along the candidate execution (not copied from the original — removing
	// events changes the states the remaining events produce).
	Trace *trace.Trace
	// Init is the initial state the execution started from.
	Init spec.State
	// States holds the state after each step; len(States) == len(Trace.Steps).
	States []spec.State
}

// Oracle reports whether a revalidated candidate still reproduces the
// failure being minimized. It must be deterministic: ddmin's 1-minimality
// guarantee (and the determinism of the minimized trace) depends on it.
type Oracle func(c *Candidate) bool

// Options tunes a minimization.
type Options struct {
	// RecordVars includes recomputed variable maps in candidate traces.
	// Required when the minimized trace will be replayed at the
	// implementation level (replay compares step variables); defaults to
	// true when the original trace carries variables.
	RecordVars bool
	// Metrics, when set, receives shrink.attempts / shrink.invalid /
	// shrink.removed counters and the phase.shrink timer.
	Metrics *obs.Registry
	// Tracer, when set, receives one "reduced" event per successful
	// reduction and a final "done" event.
	Tracer *obs.Tracer
}

// Result is the outcome of a minimization.
type Result struct {
	// Trace is the minimized trace (the original when nothing was removable).
	Trace *trace.Trace
	// OriginalLen and MinimizedLen count trace events before and after.
	OriginalLen  int
	MinimizedLen int
	// Attempts counts oracle evaluations of spec-valid candidates; Invalid
	// counts candidates rejected because their event subsequence is not a
	// legal execution of the specification (an event was not enabled).
	Attempts int
	Invalid  int
	// Removed = OriginalLen - MinimizedLen.
	Removed int
}

// Minimize runs ddmin over the trace's event sequence. The original trace
// must itself reproduce under the oracle (after guided replay through m) —
// otherwise an error is returned, since a failing baseline would make every
// reduction meaningless. The returned trace is 1-minimal with respect to
// single-event removal.
func Minimize(m spec.Machine, t *trace.Trace, oracle Oracle, opts Options) (*Result, error) {
	if t == nil || len(t.Steps) == 0 {
		return nil, fmt.Errorf("shrink: empty trace")
	}
	stop := opts.Metrics.StartPhase("shrink")
	defer stop()
	recordVars := opts.RecordVars || t.Init != nil || t.Steps[0].Vars != nil

	attempts := opts.Metrics.Counter("shrink.attempts")
	invalid := opts.Metrics.Counter("shrink.invalid")
	removedCtr := opts.Metrics.Counter("shrink.removed")

	events := t.Events()
	res := &Result{OriginalLen: len(events)}
	cache := make(map[string]bool)

	// test revalidates the subsequence events[idx[0]], events[idx[1]], ... at
	// the specification level and asks the oracle whether it still fails.
	test := func(idx []int) bool {
		key := subsetKey(idx)
		if verdict, ok := cache[key]; ok {
			return verdict
		}
		sub := make([]trace.Event, len(idx))
		for i, j := range idx {
			sub[i] = events[j]
		}
		cand, ok := Replay(m, t.Init, sub, recordVars)
		var verdict bool
		if !ok {
			res.Invalid++
			invalid.Inc()
		} else {
			res.Attempts++
			attempts.Inc()
			verdict = oracle(cand)
		}
		cache[key] = verdict
		return verdict
	}

	all := make([]int, len(events))
	for i := range all {
		all[i] = i
	}
	if !test(all) {
		return nil, fmt.Errorf("shrink: original trace (%d events) does not reproduce under the oracle", len(events))
	}

	// ddmin proper: try removing ever-finer chunks until no chunk of any
	// granularity (down to single events) can be removed.
	cur := all
	n := 2
	for len(cur) >= 2 {
		reduced := false
		for _, complement := range complements(cur, n) {
			if test(complement) {
				if opts.Tracer != nil {
					opts.Tracer.Emit(obs.Event{
						Layer: "shrink", Kind: "reduced", Node: -1,
						Detail: map[string]string{
							"from":     strconv.Itoa(len(cur)),
							"to":       strconv.Itoa(len(complement)),
							"attempts": strconv.Itoa(res.Attempts + res.Invalid),
						},
					})
				}
				cur = complement
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}

	final, ok := Replay(m, t.Init, pick(events, cur), recordVars)
	if !ok {
		// Cannot happen: cur was accepted by test, which replayed it.
		return nil, fmt.Errorf("shrink: minimized trace failed revalidation")
	}
	res.Trace = final.Trace
	res.MinimizedLen = len(cur)
	res.Removed = res.OriginalLen - res.MinimizedLen
	removedCtr.Add(int64(res.Removed))
	if opts.Tracer != nil {
		opts.Tracer.Emit(obs.Event{
			Layer: "shrink", Kind: "done", Node: -1,
			Detail: map[string]string{
				"original":  strconv.Itoa(res.OriginalLen),
				"minimized": strconv.Itoa(res.MinimizedLen),
				"attempts":  strconv.Itoa(res.Attempts),
				"invalid":   strconv.Itoa(res.Invalid),
			},
		})
	}
	return res, nil
}

// complements returns the candidate index lists obtained by deleting each of
// n contiguous chunks from cur (the "test complements" step of ddmin).
func complements(cur []int, n int) [][]int {
	if n > len(cur) {
		n = len(cur)
	}
	size := (len(cur) + n - 1) / n
	var out [][]int
	for lo := 0; lo < len(cur); lo += size {
		hi := lo + size
		if hi > len(cur) {
			hi = len(cur)
		}
		comp := make([]int, 0, len(cur)-(hi-lo))
		comp = append(comp, cur[:lo]...)
		comp = append(comp, cur[hi:]...)
		out = append(out, comp)
	}
	return out
}

func pick(events []trace.Event, idx []int) []trace.Event {
	out := make([]trace.Event, len(idx))
	for i, j := range idx {
		out[i] = events[j]
	}
	return out
}

func subsetKey(idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(',')
	}
	return b.String()
}

// Replay performs a guided replay of an event sequence through the
// specification machine: starting from the machine's initial state (matched
// against init when the machine has several), it follows, at every step,
// the enabled successor whose event Matches the next requested event. It
// returns false when some event is not enabled — the subsequence is not a
// legal execution (e.g. a delivery whose message was never sent because the
// send-triggering event was removed).
//
// Note the replay matches event *descriptors*, not the originating states:
// after removals a matching event may produce a different successor state
// than it did in the original trace. That is exactly what ddmin needs — the
// oracle re-judges the rebuilt execution, and the rebuilt trace carries
// recomputed variables so implementation-level replay compares against the
// states this execution actually visits.
func Replay(m spec.Machine, init map[string]string, events []trace.Event, recordVars bool) (*Candidate, bool) {
	cur := initialState(m, init)
	if cur == nil {
		return nil, false
	}
	cand := &Candidate{
		Trace: &trace.Trace{System: m.Name()},
		Init:  cur,
	}
	if recordVars {
		cand.Trace.Init = spec.VarsOf(cur)
	}
	var succs []spec.Succ
	for _, ev := range events {
		succs = m.AppendNext(cur, succs[:0])
		i := slices.IndexFunc(succs, func(su spec.Succ) bool { return su.Event.Matches(ev) })
		if i < 0 {
			return nil, false
		}
		// Every step's state outlives the buffer (cand.States): take it out
		// of the slack the next AppendNext recycles.
		cur = spec.Keep(succs, i, nil)
		step := trace.Step{Event: succs[i].Event, Fingerprint: cur.Fingerprint()}
		if recordVars {
			step.Vars = spec.VarsOf(cur)
		}
		cand.Trace.Steps = append(cand.Trace.Steps, step)
		cand.States = append(cand.States, cur)
	}
	return cand, true
}

// initialState picks the machine init state: the only one when there is
// exactly one, otherwise the first whose rendered variables equal init.
func initialState(m spec.Machine, init map[string]string) spec.State {
	inits := m.Init()
	if len(inits) == 0 {
		return nil
	}
	if len(inits) == 1 || init == nil {
		return inits[0]
	}
	for _, s := range inits {
		if sameVars(spec.VarsOf(s), init) {
			return s
		}
	}
	return inits[0]
}

func sameVars(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// InvariantOracle returns an oracle that fires when any state along the
// candidate violates the named invariant of machine m (empty name = any
// invariant). Use it to minimize explorer counterexamples while preserving
// the violated property.
func InvariantOracle(m spec.Machine, invariant string) Oracle {
	invs := m.Invariants()
	if invariant != "" {
		var keep []spec.Invariant
		for _, inv := range invs {
			if inv.Name == invariant {
				keep = append(keep, inv)
			}
		}
		invs = keep
	}
	return func(c *Candidate) bool {
		for _, s := range c.States {
			for _, inv := range invs {
				if inv.Check(s) != nil {
					return true
				}
			}
		}
		return false
	}
}

// DivergenceOracle returns an oracle that fires when replaying the
// candidate against a fresh implementation cluster reproduces the original
// spec/impl divergence: the same set of diverging variable keys, or — when
// the original divergence was an execution error (crash, resource-check
// failure) — any step error. Use it to minimize conformance discrepancy
// traces. Each evaluation boots one cluster via newCluster(seed), mirroring
// conformance.Run's fresh-cluster-per-walk discipline.
func DivergenceOracle(newCluster func(seed int64) (*engine.Cluster, error), seed int64, ropts replay.Options, want *replay.StepResult) Oracle {
	// Candidate replays always compare every step: the divergence may move
	// to an earlier step once unrelated events are removed.
	ropts.CompareEachStep = true
	return func(c *Candidate) bool {
		cl, err := newCluster(seed)
		if err != nil {
			return false
		}
		res, err := replay.Run(c.Trace, cl, ropts)
		if err != nil || res.Divergence == nil {
			return false
		}
		if want == nil {
			return true
		}
		if want.Err != nil {
			return res.Divergence.Err != nil
		}
		return sameKeys(res.Divergence.DiffKeys, want.DiffKeys)
	}
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
