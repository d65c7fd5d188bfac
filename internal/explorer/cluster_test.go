package explorer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/specs/raftbase"
	"github.com/sandtable-go/sandtable/internal/specs/zabkeeper"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// The distributed explorer's headline property: a cluster run is
// byte-identical to a single-process run — counters, violations, coverage
// profile, counterexample traces — at every peer count and worker count.
// integrations.FuzzShapeMatchesOracle holds every peer count to the oracle;
// these tests pin the cluster's specific failures: cross-worker repeats at
// seal, a peer killed mid-run, disagreeing flags, a cancel on one peer.

// eqMachine is a fully-exhaustible gosyncobj model: 1127 distinct states
// over 15 levels, no violations.
func eqMachine() *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System: "gosyncobj", Profile: raftbase.GoSyncObj, Transport: spec.TCP,
		Config: spec.Config{Name: "n2w1", Nodes: 2, Workload: []string{"v1"}},
		Budget: spec.Budget{Name: "eq", MaxTimeouts: 3, MaxRequests: 2, MaxBuffer: 3},
	})
}

// bugMachine is a seeded-defect craft model that violates an invariant at
// depth 7 (18 violating states at that level).
func bugMachine() *raftbase.Machine {
	return raftbase.New(raftbase.Options{
		System: "craft", Profile: raftbase.CRaft, Transport: spec.UDP, Snapshots: true,
		Bugs:   bugdb.VerificationBugs("craft"),
		Config: spec.Config{Name: "n3w1", Nodes: 3, Workload: []string{"v1"}},
		Budget: spec.Budget{Name: "eq", MaxTimeouts: 2, MaxRequests: 1, MaxBuffer: 2, MaxCompactions: 1},
	})
}

// zabMachine is a fully-exhaustible two-node zabkeeper model with a crash
// and a restart: 7647 distinct states over 28 levels, leaders elected,
// histories synced and committed.
func zabMachine() spec.Machine {
	return zabkeeper.New(
		spec.Config{Name: "n2w1", Nodes: 2, Workload: []string{"v1"}},
		spec.Budget{Name: "eq", MaxTimeouts: 3, MaxRequests: 2, MaxCrashes: 1, MaxRestarts: 1, MaxBuffer: 3},
		bugdb.NoBugs())
}

// clusterSig canonicalises the equivalence-relevant part of a Result, with
// the coverage profile when cover is set (canonical for cluster runs: the
// serial merge attributes freshness by min-parent, generation order — the
// W=1 single-process order). Excluded by design: Duration (wall clock),
// MaxQueueLen (summed per-peer high-water marks), per-level FpsetProbes and
// Checkpoint flags (structural, not behavioural), ResumedAtDepth.
func clusterSig(res *Result, cover bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "distinct=%d trans=%d dedup=%d maxdepth=%d stop=%s exhausted=%v\n",
		res.DistinctStates, res.Transitions, res.DedupHits, res.MaxDepth,
		res.StopReason, res.Exhausted)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "viol d=%d fp=%#x %s: %v\n", v.Depth, v.fp, v.Invariant, v.Err)
	}
	if cover && res.Cover != nil {
		fmt.Fprintf(&b, "symhits=%d\n", res.Cover.SymmetryHits)
		for _, name := range res.Cover.ActionNames() {
			a := res.Cover.Actions[name]
			if a == nil {
				fmt.Fprintf(&b, "action %s never\n", name)
				continue
			}
			fmt.Fprintf(&b, "action %s fired=%d first=%d fresh=%d lastfresh=%d\n",
				name, a.Fired, a.FirstDepth, a.Fresh, a.LastFreshDepth)
		}
		for _, l := range res.Cover.Levels {
			fmt.Fprintf(&b, "level %d frontier=%d fresh=%d trans=%d dedup=%d viols=%d\n",
				l.Depth, l.Frontier, l.Fresh, l.Transitions, l.Dedup, l.Violations)
		}
	}
	return b.String()
}

// traceSig canonicalises the reconstructed counterexample traces.
func traceSig(res *Result) string {
	var b strings.Builder
	for _, v := range res.Violations {
		if v.Trace == nil {
			b.WriteString("trace: nil\n")
			continue
		}
		b.WriteString("trace:")
		for _, s := range v.Trace.Steps {
			fmt.Fprintf(&b, " %s/%d@%#x", s.Event.Action, s.Event.Node, s.Fingerprint)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runClusterPeers runs one checker per peer over an in-process mesh (the TCP
// peer's frames, writers and flushes over pipes; separate machine instances)
// and returns the per-peer results in peer order. wrap, when non-nil, can
// interpose on a peer's Conn (failure injection).
func runClusterPeers(peers int, opts func(i int) Options, wrap func(i int, c transport.Conn) transport.Conn) []*Result {
	conns := transport.NewMesh(peers)
	results := make([]*Result, peers)
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := conns[i]
			if wrap != nil {
				conn = wrap(i, conn)
			}
			o := opts(i)
			o.Peer = &PeerOptions{Conn: conn}
			results[i] = NewChecker(machineFor(o), o).Run()
		}(i)
	}
	wg.Wait()
	return results
}

// machineFor picks the machine for the run: eqMachine, or craftHunt when the
// options carry the marker Checkpoint.Label "hunt", so runClusterPeers stays
// generic.
func machineFor(o Options) spec.Machine {
	if o.Checkpoint.Label == "hunt" {
		return craftHunt()
	}
	return eqMachine()
}

// flakyConn fails every Exchange at or past failAt and closes the underlying
// mesh endpoint, which propagates a transport error to every other peer
// blocked on the barrier — the closest in-process analogue of a peer crash.
type flakyConn struct {
	transport.Conn
	failAt uint64
}

func (f *flakyConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	if tag >= f.failAt {
		f.Conn.Close()
		return nil, nil, errors.New("injected peer failure")
	}
	return f.Conn.Exchange(tag, blocks, summary)
}

// TestClusterKillAndResume kills a checkpointing 3-peer cluster mid-run and
// resumes it, with one checkpoint dir shared by every peer and with a
// separate dir per peer — the multi-host layout, where only the coordinator
// holds the manifest and hands it out at hello.
func TestClusterKillAndResume(t *testing.T) {
	ref := NewChecker(eqMachine(), Options{Workers: 2}).Run()
	refSig := clusterSig(ref, false)

	for _, shared := range []bool{true, false} {
		name := "shared-dir"
		if !shared {
			name = "dir-per-peer"
		}
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			dirOf := func(i int) string {
				if shared {
					return base
				}
				return filepath.Join(base, fmt.Sprint(i))
			}
			// Leg 1: 3-peer run checkpointing every level; peer 1 dies at
			// barrier tag 12 (hello + depth-0 resolve + 5 levels in).
			regs := make([]*obs.Registry, 3)
			results := runClusterPeers(3, func(i int) Options {
				regs[i] = obs.NewRegistry()
				return Options{Workers: 2, Metrics: regs[i], Checkpoint: CheckpointOptions{Dir: dirOf(i), EveryStates: 1, Label: "eq"}}
			}, func(i int, c transport.Conn) transport.Conn {
				if i == 1 {
					return &flakyConn{Conn: c, failAt: 12}
				}
				return c
			})
			for i, res := range results {
				if res.Err == nil {
					t.Fatalf("peer %d survived the injected crash (stop=%s)", i, res.StopReason)
				}
				if res.StopReason != "transport-error" {
					t.Errorf("peer %d stop=%s, want transport-error (%v)", i, res.StopReason, res.Err)
				}
				// Cluster checkpoints are incremental: every peer appended.
				if got, _ := regs[i].Snapshot()["checkpoint.deltas"].(int64); got == 0 {
					t.Errorf("peer %d appended no delta block", i)
				}
			}
			if _, err := os.Stat(filepath.Join(dirOf(0), ManifestFile)); err != nil {
				t.Fatalf("no committed manifest after crash: %v", err)
			}

			// Leg 2: a fresh 3-peer cluster resumes from the manifest and
			// must land on the reference result. Coverage is excluded: a
			// resumed session profiles only its own levels by design.
			results = runClusterPeers(3, func(i int) Options {
				return Options{Workers: 2, Checkpoint: CheckpointOptions{Dir: dirOf(i), EveryStates: 1, Label: "eq", Resume: true}}
			}, nil)
			for i, res := range results {
				if res.Err != nil {
					t.Fatalf("resumed peer %d: %v (stop=%s)", i, res.Err, res.StopReason)
				}
				if !res.Resumed {
					t.Errorf("peer %d did not resume from the manifest", i)
				}
				if sig := clusterSig(res, false); sig != refSig {
					t.Errorf("resumed peer %d signature differs:\n%s\nwant:\n%s", i, sig, refSig)
				}
			}
		})
	}
}

// TestClusterCheckpointFlagsMustAgree: peers that disagree on whether they
// checkpoint or resume stop at hello with "config-error" naming the other
// peer, before exploring anything. (A coordinator without a dir would never
// call a checkpoint; a peer without one would fail every one.)
func TestClusterCheckpointFlagsMustAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		ck   func(i int) CheckpointOptions
	}{
		{"dir-on-coordinator-only", func(i int) CheckpointOptions {
			if i == 0 {
				return CheckpointOptions{Dir: t.TempDir(), EveryStates: 1}
			}
			return CheckpointOptions{}
		}},
		{"dir-on-peer-only", func(i int) CheckpointOptions {
			if i == 1 {
				return CheckpointOptions{Dir: t.TempDir(), EveryStates: 1}
			}
			return CheckpointOptions{}
		}},
		{"resume-on-coordinator-only", func(i int) CheckpointOptions {
			return CheckpointOptions{Dir: t.TempDir(), EveryStates: 1, Resume: i == 0}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := runClusterPeers(2, func(i int) Options {
				return Options{Workers: 1, Checkpoint: tc.ck(i)}
			}, nil)
			for i, res := range results {
				if res.StopReason != "config-error" || res.Err == nil || !strings.Contains(res.Err.Error(), fmt.Sprintf("peer %d", 1-i)) {
					t.Errorf("peer %d: stop=%s err=%v, want config-error naming peer %d", i, res.StopReason, res.Err, 1-i)
				}
				if res.DistinctStates != 0 || res.Checkpoints != 0 {
					t.Errorf("peer %d explored %d states, wrote %d checkpoints before refusing", i, res.DistinctStates, res.Checkpoints)
				}
			}
		})
	}
}

// cancelConn cancels its peer's context on the way into barrier cancelAt and
// otherwise forwards: a Ctrl-C landing on one process mid-run.
type cancelConn struct {
	transport.Conn
	cancelAt uint64
	cancel   context.CancelFunc
}

func (c *cancelConn) Exchange(tag uint64, blocks [][]byte, summary []byte) ([][]byte, [][]byte, error) {
	if tag == c.cancelAt {
		c.cancel()
	}
	return c.Conn.Exchange(tag, blocks, summary)
}

// TestClusterCancelStopsEveryPeer: canceling one peer's Options.Context stops
// the whole cluster at the same level with "canceled" — the flag travels in
// the resolve summary — and the manifest committed on the way stays
// resumable to the uninterrupted result.
func TestClusterCancelStopsEveryPeer(t *testing.T) {
	ref := NewChecker(eqMachine(), Options{Workers: 2}).Run()
	refSig := clusterSig(ref, false)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Peer 1 is canceled entering the data barrier of level 5 (tags: hello 0,
	// resolve 1, then data 2k and resolve 2k+1 for level k); peer 0 has no
	// context at all.
	const level = 5
	results := runClusterPeers(2, func(i int) Options {
		o := Options{Workers: 2, Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1, Label: "eq"}}
		if i == 1 {
			o.Context = ctx
		}
		return o
	}, func(i int, c transport.Conn) transport.Conn {
		if i == 1 {
			return &cancelConn{Conn: c, cancelAt: 2 * level, cancel: cancel}
		}
		return c
	})
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("peer %d: %v (stop=%s)", i, res.Err, res.StopReason)
		}
		if res.StopReason != "canceled" || res.Exhausted {
			t.Errorf("peer %d: stop=%s exhausted=%v, want canceled", i, res.StopReason, res.Exhausted)
		}
		if res.MaxDepth != level {
			t.Errorf("peer %d stopped at depth %d, want %d", i, res.MaxDepth, level)
		}
		if sig := clusterSig(res, false); sig != clusterSig(results[0], false) {
			t.Errorf("peer %d result differs from peer 0:\n%s\nvs\n%s", i, sig, clusterSig(results[0], false))
		}
	}

	results = runClusterPeers(2, func(int) Options {
		return Options{Workers: 2, Checkpoint: CheckpointOptions{Dir: dir, EveryStates: 1, Label: "eq", Resume: true}}
	}, nil)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("resumed peer %d: %v (stop=%s)", i, res.Err, res.StopReason)
		}
		if sig := clusterSig(res, false); !res.Resumed || sig != refSig {
			t.Errorf("resumed peer %d (resumed=%v) signature differs:\n%s\nwant:\n%s", i, res.Resumed, sig, refSig)
		}
	}
}

// TestClusterResumeWithoutManifest: when the coordinator cannot read a
// manifest it still sends its hello, carrying the error, so every peer stops
// with "checkpoint-error" — none is left waiting at a barrier.
func TestClusterResumeWithoutManifest(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	results := runClusterPeers(3, func(i int) Options {
		return Options{Workers: 1, Checkpoint: CheckpointOptions{Dir: dirs[i], Resume: true}}
	}, nil)
	for i, res := range results {
		if res.StopReason != "checkpoint-error" || res.Err == nil || !strings.Contains(res.Err.Error(), ManifestFile) {
			t.Fatalf("peer %d: stop=%s err=%v, want checkpoint-error for the missing manifest", i, res.StopReason, res.Err)
		}
		if i > 0 && !strings.Contains(res.Err.Error(), "coordinator") {
			t.Errorf("peer %d: error %v does not name the coordinator", i, res.Err)
		}
	}
}

func TestClusterConfigErrors(t *testing.T) {
	// MemBudget is incompatible with distributed runs.
	res := NewChecker(eqMachine(), Options{MemBudget: 1 << 20, Peer: &PeerOptions{Conn: transport.NewMesh(1)[0]}}).Run()
	if res.StopReason != "config-error" || res.Err == nil {
		t.Fatalf("mem-budget: stop=%s err=%v, want config-error", res.StopReason, res.Err)
	}
}

// TestSoloSeamsAreIdentity guards "the P=1 seam costs nothing" in tier-1:
// without a Conn the cluster context is nil, every seam hands back what it
// was given (a nil context has no Conn to call Exchange on — reaching for one
// would panic here), and a run registers no transport.* metric.
func TestSoloSeamsAreIdentity(t *testing.T) {
	var cl *clusterCtx
	man := &manifest{Depth: 3}
	if got, f := cl.hello(man, nil); f != nil || got != man {
		t.Fatalf("hello = %v, %v; want the manifest it was given", got, f)
	}
	if !cl.owns(0) || !cl.owns(^uint64(0)) {
		t.Error("a solo run must own every fingerprint")
	}
	next := []frontierEntry{{fp: 2}, {fp: 1}}
	viols := []*Violation{{Invariant: "x"}}
	gotNext, gotViols, due, f := cl.seal(nil, 1, next, viols, true)
	if f != nil || !due || len(gotNext) != 2 || &gotNext[0] != &next[0] || len(gotViols) != 1 || gotViols[0] != viols[0] {
		t.Errorf("seal changed its input: next=%v viols=%v due=%v fatal=%v", gotNext, gotViols, due, f)
	}
	local := levelView{distinct: 7, frontier: 3, violations: 1, deadline: true, canceled: true, ckErr: "disk full", chains: []chainPos{{Log: "b"}}}
	if g, f := cl.resolve(1, viols, local); f != nil || !reflect.DeepEqual(g, local) {
		t.Errorf("resolve = %+v (fatal %v), want the local view %+v", g, f, local)
	}

	for _, peer := range []*PeerOptions{nil, {}} {
		reg := obs.NewRegistry()
		res := NewChecker(eqMachine(), Options{Workers: 2, Metrics: reg, Peer: peer}).Run()
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("solo run: stop=%s err=%v", res.StopReason, res.Err)
		}
		for key := range reg.Snapshot() {
			if strings.HasPrefix(key, "transport.") {
				t.Errorf("solo run (Peer=%v) registered %s", peer, key)
			}
		}
	}
}

// yieldingMachine yields the processor before every expansion, so the pool's
// workers take turns claiming chunks even on one P — where the caller's
// worker would otherwise expand a whole small level before the others wake.
type yieldingMachine struct{ spec.Machine }

func (m yieldingMachine) AppendNext(s spec.State, buf []spec.Succ) []spec.Succ {
	runtime.Gosched()
	return m.Machine.AppendNext(s, buf)
}

// TestClusterEquivalenceCrossWorkerRepeats is the equivalence row that
// proves seal's cross-worker rule instead of passing vacuously: workers drop
// their own repeats, so a fingerprint two workers both produced reaches seal
// twice and only the (owner, fp, parent) sort picks its survivor. The branch
// must fire, and the cluster must still reproduce the W=1 single-process
// reference — full coverage profile (which action got the fresh credit) and
// the coordinator's counterexample traces (which parent edge was stored).
func TestClusterEquivalenceCrossWorkerRepeats(t *testing.T) {
	opts := func(w int) Options {
		return Options{Workers: w, Cover: true, StopAtFirstViolation: true}
	}
	ref := NewChecker(bugMachine(), opts(1)).Run()
	refSig, refTraces := clusterSig(ref, true), traceSig(ref)
	for _, w := range []int{2, 4} {
		conns := transport.NewMesh(2)
		checkers := make([]*Checker, len(conns))
		results := make([]*Result, len(conns))
		var wg sync.WaitGroup
		for i := range conns {
			o := opts(w)
			o.Peer = &PeerOptions{Conn: conns[i]}
			checkers[i] = NewChecker(yieldingMachine{bugMachine()}, o)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = checkers[i].Run()
			}(i)
		}
		wg.Wait()
		var repeats int64
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("w=%d peer %d: %v", w, i, res.Err)
			}
			if sig := clusterSig(res, true); sig != refSig {
				t.Errorf("w=%d peer %d signature differs:\n%s\nwant:\n%s", w, i, sig, refSig)
			}
			repeats += checkers[i].cluster.crossRepeats
		}
		if got := traceSig(results[0]); got != refTraces {
			t.Errorf("w=%d coordinator traces differ:\n%s\nwant:\n%s", w, got, refTraces)
		}
		t.Logf("w=%d: %d cross-worker repeats dropped at seal", w, repeats)
		if repeats == 0 {
			t.Errorf("w=%d: no cross-worker repeat reached seal; the row proves nothing", w)
		}
	}
}
