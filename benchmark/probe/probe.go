// Package probe is the benchmark's measuring decorator for a specification
// machine. The benchmark defines the repository's per-layer numbers without
// editing the layers, so every span is recorded here, around the calls the
// explorer makes into the machine: successor enumeration, invariant checks,
// orbit canonicalization and the state codec.
//
// The decorator forwards every optional spec interface, because the explorer
// picks its fast paths by type assertion: a wrapper that hid one would measure
// a slower program than the one users run. It is not goroutine-safe; a traced
// run uses Workers: 1 and gives every in-process peer its own Machine.
package probe

import (
	"fmt"
	"time"

	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/spec"
)

// Kind names one timed call site.
type Kind int

// The call sites the decorator times. Bookkeeping is the decorator's own
// recording work, timed so it can be subtracted from the explorer's self time
// like any other child span.
const (
	AppendNext Kind = iota
	Invariants
	Orbit
	Encode
	Decode
	Bookkeeping
	NumKinds
)

var kindNames = [NumKinds]string{
	"spec.append_next", "spec.invariants", "fp.orbit",
	"spec.codec_encode", "spec.codec_decode", "trace.bookkeeping",
}

// String is the span name of the call site.
func (k Kind) String() string { return kindNames[k] }

// Agg is the aggregate of one call site over one BFS level: a span per call
// would be some 10^7 records for a million-state run.
type Agg struct {
	Calls  int64 `json:"calls"`
	BusyNs int64 `json:"busy_ns"`
	// Items counts what the calls produced: successors for AppendNext,
	// bytes for Encode and Decode; zero for the rest.
	Items int64 `json:"items,omitempty"`
}

// Level is everything recorded between two level marks. Times are
// nanoseconds since Start.
type Level struct {
	Depth   int           `json:"depth"`
	StartNs int64         `json:"start_ns"`
	EndNs   int64         `json:"end_ns"`
	Spans   [NumKinds]Agg `json:"spans"`
	// KeyMark is len(Keys) when the level ended.
	KeyMark int `json:"key_mark"`
}

// Expansion records one AppendNext call: the canonical fingerprint of the
// expanded state and how many successors it had. Together with Keys it is the
// exact (key, parent) stream the explorer fed its fingerprint set.
type Expansion struct {
	Parent uint64
	Succs  uint32
}

// Machine is the decorator. Build it with Wrap.
type Machine struct {
	inner  spec.Machine
	bm     spec.BufferedMachine
	fast   spec.FastSymmetric
	orbit  spec.OrbitHasher
	lister spec.ActionLister
	codec  spec.StateCodec

	ptab    *spec.PermTable
	scratch fp.OrbitScratch

	base time.Time
	cur  Level
	// Levels holds the completed levels; the open one is added by Stop.
	Levels []Level
	// Keys is the canonical fingerprint of every successor, in the order the
	// explorer computed them.
	Keys []uint64
	// Expansions has one entry per AppendNext call.
	Expansions []Expansion
	// Reduced counts successors whose canonical fingerprint came from a
	// non-identity permutation.
	Reduced int64

	pending int

	// sampleAt lists, ascending, the AppendNext call numbers whose argument
	// is kept in Samples.
	sampleAt []int
	Samples  []spec.State
}

// Compile-time proof that the decorator hides none of the optional
// interfaces the explorer asserts for.
var (
	_ spec.BufferedMachine = (*Machine)(nil)
	_ spec.Symmetric       = (*Machine)(nil)
	_ spec.FastSymmetric   = (*Machine)(nil)
	_ spec.OrbitHasher     = (*Machine)(nil)
	_ spec.ActionLister    = (*Machine)(nil)
	_ spec.StateCodec      = (*Machine)(nil)
)

// Wrap decorates m. It refuses a machine that lacks one of the six optional
// interfaces: the decorator's method set is fixed, so forwarding to a missing
// method would make the explorer take a path the bare machine never takes.
// sampleAt lists the AppendNext call numbers (ascending) whose state is kept
// for the layer replays; it may be nil.
func Wrap(m spec.Machine, sampleAt []int) (*Machine, error) {
	p := &Machine{inner: m, sampleAt: sampleAt}
	var ok bool
	if p.bm, ok = m.(spec.BufferedMachine); !ok {
		return nil, fmt.Errorf("probe: %s lacks spec.BufferedMachine", m.Name())
	}
	if p.fast, ok = m.(spec.FastSymmetric); !ok {
		return nil, fmt.Errorf("probe: %s lacks spec.FastSymmetric", m.Name())
	}
	if p.orbit, ok = m.(spec.OrbitHasher); !ok {
		return nil, fmt.Errorf("probe: %s lacks spec.OrbitHasher", m.Name())
	}
	if p.lister, ok = m.(spec.ActionLister); !ok {
		return nil, fmt.Errorf("probe: %s lacks spec.ActionLister", m.Name())
	}
	if p.codec, ok = m.(spec.StateCodec); !ok {
		return nil, fmt.Errorf("probe: %s lacks spec.StateCodec", m.Name())
	}
	p.ptab = spec.PermTableFor(p.orbit.NumNodes())
	return p, nil
}

// Start opens the first level; call it immediately before Checker.Run.
func (p *Machine) Start() {
	p.base = time.Now()
	p.cur = Level{Depth: 1}
}

// MarkLevel closes the open level as depth and opens the next. The benchmark
// calls it from the explorer's "level" trace event.
func (p *Machine) MarkLevel(depth int) {
	now := int64(time.Since(p.base))
	p.cur.Depth = depth
	p.cur.EndNs = now
	p.cur.KeyMark = len(p.Keys)
	p.Levels = append(p.Levels, p.cur)
	p.cur = Level{Depth: depth + 1, StartNs: now}
	p.pending = 0
}

// Stop closes the tail (whatever ran after the last level mark: stop
// decisions and counterexample reconstruction) as depth -1 and returns the
// run's wall time in nanoseconds. Keys recorded in the tail belong to
// reconstruction, not to exploration, and are dropped.
func (p *Machine) Stop() int64 {
	now := int64(time.Since(p.base))
	mark := 0
	if n := len(p.Levels); n > 0 {
		mark = p.Levels[n-1].KeyMark
	}
	p.Keys = p.Keys[:mark]
	p.cur.Depth = -1
	p.cur.EndNs = now
	p.cur.KeyMark = mark
	p.Levels = append(p.Levels, p.cur)
	return now
}

// Total sums one call site over every level, tail included.
func (p *Machine) Total(k Kind) Agg {
	var a Agg
	for i := range p.Levels {
		s := &p.Levels[i].Spans[k]
		a.Calls += s.Calls
		a.BusyNs += s.BusyNs
		a.Items += s.Items
	}
	return a
}

// Charge adds d to a call site of the open level: how the benchmark accounts
// for recording work it does outside the decorator's own methods.
func (p *Machine) Charge(k Kind, d time.Duration) {
	a := &p.cur.Spans[k]
	a.Calls++
	a.BusyNs += int64(d)
}

func (p *Machine) add(k Kind, start time.Time, items int64) {
	a := &p.cur.Spans[k]
	a.Calls++
	a.BusyNs += int64(time.Since(start))
	a.Items += items
}

// Name implements spec.Machine.
func (p *Machine) Name() string { return p.inner.Name() }

// Init implements spec.Machine.
func (p *Machine) Init() []spec.State { return p.inner.Init() }

// Next implements spec.Machine. The explorer never calls it on a
// BufferedMachine; it is timed as AppendNext for the callers that do.
func (p *Machine) Next(s spec.State) []spec.Succ { return p.AppendNext(s, nil) }

// AppendNext implements spec.BufferedMachine.
func (p *Machine) AppendNext(s spec.State, buf []spec.Succ) []spec.Succ {
	t0 := time.Now()
	parent, _ := p.orbit.OrbitFingerprint(s, p.ptab, &p.scratch)
	if n := len(p.Expansions); len(p.sampleAt) > 0 && p.sampleAt[0] == n {
		p.Samples = append(p.Samples, s)
		p.sampleAt = p.sampleAt[1:]
	}
	p.add(Bookkeeping, t0, 0)

	t1 := time.Now()
	out := p.bm.AppendNext(s, buf)
	n := len(out) - len(buf)
	p.add(AppendNext, t1, int64(n))

	p.Expansions = append(p.Expansions, Expansion{Parent: parent, Succs: uint32(n)})
	p.pending = n
	return out
}

// Invariants implements spec.Machine: every check is timed.
func (p *Machine) Invariants() []spec.Invariant {
	invs := p.inner.Invariants()
	out := make([]spec.Invariant, len(invs))
	for i, inv := range invs {
		check := inv.Check
		out[i] = spec.Invariant{Name: inv.Name, Check: func(s spec.State) error {
			t0 := time.Now()
			err := check(s)
			p.add(Invariants, t0, 0)
			return err
		}}
	}
	return out
}

// NumNodes implements spec.Symmetric.
func (p *Machine) NumNodes() int { return p.orbit.NumNodes() }

// Permute implements spec.Symmetric.
func (p *Machine) Permute(s spec.State, perm []int) spec.State {
	t0 := time.Now()
	out := p.orbit.Permute(s, perm)
	p.add(Orbit, t0, 0)
	return out
}

// PermutedFingerprint implements spec.FastSymmetric.
func (p *Machine) PermutedFingerprint(s spec.State, perm []int) uint64 {
	t0 := time.Now()
	out := p.fast.PermutedFingerprint(s, perm)
	p.add(Orbit, t0, 0)
	return out
}

// OrbitFingerprint implements spec.OrbitHasher. The first Succs calls after
// an AppendNext are that expansion's successors, in order: their results are
// the key stream.
func (p *Machine) OrbitFingerprint(s spec.State, perms *spec.PermTable, scratch *fp.OrbitScratch) (uint64, bool) {
	t0 := time.Now()
	min, reduced := p.orbit.OrbitFingerprint(s, perms, scratch)
	p.add(Orbit, t0, 0)
	if p.pending > 0 {
		p.pending--
		p.Keys = append(p.Keys, min)
		if reduced {
			p.Reduced++
		}
	}
	return min, reduced
}

// Actions implements spec.ActionLister.
func (p *Machine) Actions() []string { return p.lister.Actions() }

// AppendState implements spec.StateCodec.
func (p *Machine) AppendState(dst []byte, s spec.State) []byte {
	t0 := time.Now()
	out := p.codec.AppendState(dst, s)
	p.add(Encode, t0, int64(len(out)-len(dst)))
	return out
}

// DecodeState implements spec.StateCodec.
func (p *Machine) DecodeState(src []byte) (spec.State, []byte, error) {
	t0 := time.Now()
	s, rest, err := p.codec.DecodeState(src)
	p.add(Decode, t0, int64(len(src)-len(rest)))
	return s, rest, err
}
