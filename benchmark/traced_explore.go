package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sandtable-go/sandtable/benchmark/probe"
	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/fp"
	"github.com/sandtable-go/sandtable/internal/fpset"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/transport"
)

// session builds the checking session the CLI builds for -system/-bug/-fixed.
func session(system, bug string) (*sandtable.SandTable, error) {
	sys, err := integrations.Get(system)
	if err != nil {
		return nil, err
	}
	bugs := bugdb.NoBugs()
	if bug != "" {
		info, ok := bugdb.ByID(bug)
		if !ok {
			return nil, fmt.Errorf("unknown bug id %q", bug)
		}
		bugs = bugs.With(info.Key)
	}
	return sandtable.New(sys, sys.DefaultConfig, sys.DefaultBudget, bugs), nil
}

// shapeRun is one in-process exploration in one deployment shape.
type shapeRun struct {
	res    *explorer.Result
	snaps  []map[string]any // registry snapshot per peer
	wall   time.Duration
	probes []*probe.Machine // one per peer; nil when undecorated
	heap   heapDelta
	// diskHigh is the largest size the spill and checkpoint directories
	// reached, sampled at level marks (decorated run only).
	diskHigh int64
	ckBytes  int64
}

// runShape explores st's machine once, in-process, at Workers: 1. base carries
// the stop rule; the shape adds its own options exactly as the CLI does.
func (h *harness) runShape(st *sandtable.SandTable, workload string, base explorer.Options, dir string, decorate bool, sampleAt []int) (*shapeRun, error) {
	peers := 1
	if workload == wlCluster {
		peers = 2
	}
	spill, ck := filepath.Join(dir, "spill"), filepath.Join(dir, "checkpoint")
	os.RemoveAll(spill)
	os.RemoveAll(ck)
	defer os.RemoveAll(spill)

	// One P per peer: a timed call must not include another peer's time
	// slice. (runTraced pins the process to one P; only the cluster needs
	// a second.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(peers))

	run := &shapeRun{snaps: make([]map[string]any, peers)}
	opts := make([]explorer.Options, peers)
	machines := make([]spec.Machine, peers)
	regs := make([]*obs.Registry, peers)
	for p := range opts {
		regs[p] = obs.NewRegistry()
		o := base
		o.Workers = 1
		o.Cover = true
		o.Metrics = regs[p]
		machines[p] = st.Machine()
		if decorate {
			var at []int
			if p == 0 {
				at = sampleAt
			}
			pm, err := probe.Wrap(machines[p], at)
			if err != nil {
				return nil, err
			}
			var atLevel func()
			if workload == wlSpill {
				atLevel = func() { run.diskHigh = max(run.diskHigh, dirBytes(spill, ck)) }
			}
			o.Tracer = levelTracer(pm, atLevel)
			machines[p] = pm
			run.probes = append(run.probes, pm)
		}
		opts[p] = o
	}
	switch workload {
	case wlSpill:
		budget, err := explorer.ParseByteSize(h.sz.MemBudget)
		if err != nil {
			return nil, err
		}
		opts[0].MemBudget = budget
		opts[0].SpillDir = spill
		opts[0].Checkpoint = explorer.CheckpointOptions{Dir: ck, EveryStates: h.sz.CheckpointStates, Label: st.Label()}
	case wlCluster:
		ms := make([]*transport.Metrics, peers)
		for p := range ms {
			ms[p] = transport.NewMetrics(regs[p])
		}
		conns, _ := h.dialPair(ms)
		for p := range opts {
			opts[p].Peer = &explorer.PeerOptions{Conn: conns[p]}
		}
	}

	// Every run starts from a heap the operating system has taken back, as a
	// child process does: otherwise the second run of a pair inherits the
	// first one's mapped arenas and looks faster than it is.
	debug.FreeOSMemory()
	mark := markHeap()
	results := make([]*explorer.Result, peers)
	var wg sync.WaitGroup
	start := time.Now()
	for _, pm := range run.probes {
		pm.Start()
	}
	for p := 1; p < peers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p] = explorer.NewChecker(machines[p], opts[p]).Run()
		}()
	}
	results[0] = explorer.NewChecker(machines[0], opts[0]).Run()
	wg.Wait()
	run.wall = time.Since(start)
	for _, pm := range run.probes {
		pm.Stop()
	}
	run.heap = mark.since()
	run.ckBytes = dirBytes(ck)
	os.RemoveAll(ck)

	for p, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("peer %d: %w", p, r.Err)
		}
		run.snaps[p] = regs[p].Snapshot()
	}
	run.res = results[0]
	return run, nil
}

// dialPair connects two in-process peers over loopback TCP — the transport
// the cluster workload uses — and falls back to the in-memory mesh (which
// moves the same encoded bytes) where loopback sockets are unavailable.
func (h *harness) dialPair(ms []*transport.Metrics) (conns []transport.Conn, tcp bool) {
	peers, err := h.pickPeers(2)
	if err == nil {
		addrs := strings.Split(peers, ",")
		conns = make([]transport.Conn, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for p := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conns[p], errs[p] = transport.DialTCP(transport.TCPOptions{
					Addrs: addrs, Self: p, Digest: 1, Timeout: 30 * time.Second, Metrics: ms[p]})
			}()
		}
		wg.Wait()
		if errs[0] == nil && errs[1] == nil {
			return conns, true
		}
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	h.logf("loopback TCP unavailable (%v): in-process peers use the in-memory mesh", err)
	return transport.NewMeshMetrics(2, ms), false
}

func snapNum(snap map[string]any, key string) float64 {
	v, _ := snap[key].(int64)
	return float64(v)
}

// sumSnaps adds a registry counter over every peer.
func sumSnaps(snaps []map[string]any, key string) float64 {
	var t float64
	for _, s := range snaps {
		t += snapNum(s, key)
	}
	return t
}

func sameCounts(a, b *explorer.Result) bool {
	return a.DistinctStates == b.DistinctStates && a.Transitions == b.Transitions &&
		a.MaxDepth == b.MaxDepth && a.StopReason == b.StopReason && len(a.Violations) == len(b.Violations)
}

func countsOf(r *explorer.Result) string {
	return fmt.Sprintf("%d states / %d transitions / depth %d / %s / %d violations",
		r.DistinctStates, r.Transitions, r.MaxDepth, r.StopReason, len(r.Violations))
}

// tracedExplore is the traced run of an explore_* workload: the shared input
// stopped at a depth, so that every shape stops on the same level.
func (h *harness) tracedExplore(o *outcome, log *spanLog, workload, dir string) error {
	st, err := session(h.sz.System, "")
	if err != nil {
		return err
	}
	base := explorer.DefaultOptions()
	base.MaxDepth = h.sz.TracedMaxDepth
	base.Deadline = h.sz.ChildDeadline
	return h.traceShape(o, log, st, workload, base, dir)
}

// traceShape runs one session in one shape three ways — the in-RAM reference
// (for the other shapes), undecorated, decorated — and derives the per-layer
// metrics from the difference, the spans and the layer replays.
func (h *harness) traceShape(o *outcome, log *spanLog, st *sandtable.SandTable, workload string, base explorer.Options, dir string) error {
	shape := workload
	if workload == wlWorkflow {
		shape = wlInRAM
	}
	// The first exploration of a process runs a few percent slower than the
	// ones after it. For the shapes that need an in-RAM reference (stops are
	// level-granular under MaxDepth, so here — unlike under -max-states —
	// every shape must report the in-RAM counts) that run goes first; the
	// others get a warm-up of a few thousand states.
	var ref *shapeRun
	var err error
	if shape != wlInRAM {
		ref, err = h.runShape(st, wlInRAM, base, dir, false, nil)
		if err != nil {
			return fmt.Errorf("in-RAM reference run: %w", err)
		}
		h.logf("%s in-RAM reference: %s in %.2fs", workload, countsOf(ref.res), seconds(ref.wall))
	} else {
		warm := base
		warm.MaxStates = 5000
		if _, err := h.runShape(st, shape, warm, dir, false, nil); err != nil {
			return fmt.Errorf("warm-up run: %w", err)
		}
	}
	bare, err := h.runShape(st, shape, base, dir, false, nil)
	if err != nil {
		return fmt.Errorf("undecorated run: %w", err)
	}
	res := bare.res
	h.logf("%s undecorated: %s in %.2fs", workload, countsOf(res), seconds(bare.wall))
	if ref != nil {
		o.op("cross-shape-counts", sameCounts(ref.res, res), "in-RAM %s, %s %s", countsOf(ref.res), workload, countsOf(res))
	}
	o.count("traced.distinct_states", int64(res.DistinctStates))
	o.count("traced.transitions", res.Transitions)
	o.count("traced.max_depth", int64(res.MaxDepth))

	// The seed picks which reachable states the layer replays use.
	expanded := 0
	for _, lv := range res.Cover.Levels {
		expanded += lv.Frontier
	}
	if shape == wlCluster {
		expanded /= 2 // peer 0 expands about half of every level
	}
	dec, err := h.runShape(st, shape, base, dir, true, sampleIndices(h.seed, expanded, h.sz.Samples))
	if err != nil {
		return fmt.Errorf("decorated run: %w", err)
	}
	h.logf("%s decorated: %s in %.2fs", workload, countsOf(dec.res), seconds(dec.wall))
	o.op("decorated-counts", sameCounts(dec.res, res), "undecorated %s, decorated %s", countsOf(res), countsOf(dec.res))
	o.op("fast-path-kept", sumSnaps(dec.snaps, "explorer.canonical.orbit") > 0 && sumSnaps(dec.snaps, "explorer.canonical.flat") == 0,
		"canonical.orbit %v, canonical.flat %v through the decorator",
		sumSnaps(dec.snaps, "explorer.canonical.orbit"), sumSnaps(dec.snaps, "explorer.canonical.flat"))

	distinct := float64(res.DistinctStates)
	transitions := float64(res.Transitions)
	// Every peer runs on a P of its own, so a peer's self time is its wall
	// minus its own spans; walls and spans are summed over the peers.
	var total [probe.NumKinds]probe.Agg
	var keys, expansions int
	var wallNs, spansNs float64
	for p, pm := range dec.probes {
		log.addProbe(fmt.Sprintf("%s/decorated/peer%d", workload, p), "explorer.run", pm, int64(dec.wall))
		for k := probe.Kind(0); k < probe.NumKinds; k++ {
			a := pm.Total(k)
			total[k].Calls += a.Calls
			total[k].BusyNs += a.BusyNs
			total[k].Items += a.Items
			spansNs += float64(a.BusyNs)
		}
		keys += len(pm.Keys)
		var levelsNs float64
		for _, lv := range pm.Levels {
			levelsNs += float64(lv.EndNs - lv.StartNs)
			if lv.Depth > 0 {
				expansions += int(lv.Spans[probe.AppendNext].Calls)
			}
		}
		wallNs += levelsNs
		// The level spans, on the decorator's clock, must account for the
		// run as the harness timed it from outside.
		o.op("levels-cover-run", math.Abs(levelsNs-float64(dec.wall)) <= 0.02*float64(dec.wall),
			"peer %d: level spans cover %.0f of %d ns", p, levelsNs, dec.wall)
	}
	o.op("key-stream", float64(keys) == transitions, "recorded %d keys, the explorer counted %v transitions", keys, transitions)

	o.Shares = map[string]float64{"explorer.self": ratio(wallNs-spansNs, wallNs)}
	for k := probe.Kind(0); k < probe.NumKinds; k++ {
		o.Shares[k.String()] = ratio(float64(total[k].BusyNs), wallNs)
	}

	m := o.Metrics
	m["spec.append_next_ns_per_succ"] = ratio(float64(total[probe.AppendNext].BusyNs), float64(total[probe.AppendNext].Items))
	m["spec.invariants_ns_per_state"] = ratio(float64(total[probe.Invariants].BusyNs), distinct)
	m["spec.succs_per_state"] = ratio(transitions, float64(expansions))
	m["spec.codec_encode_ns_per_state"] = ratio(float64(total[probe.Encode].BusyNs), float64(total[probe.Encode].Calls))
	m["spec.codec_decode_ns_per_state"] = ratio(float64(total[probe.Decode].BusyNs), float64(total[probe.Decode].Calls))
	m["spec.codec_bytes_per_state"] = ratio(float64(total[probe.Encode].Items), float64(total[probe.Encode].Calls))
	m["fp.orbit_ns_per_canon"] = ratio(float64(total[probe.Orbit].BusyNs), float64(total[probe.Orbit].Calls))
	m["fp.canon_per_state"] = ratio(sumSnaps(bare.snaps, "explorer.canonical.orbit"), distinct)
	m["fp.symmetry_hit_frac"] = ratio(float64(res.Cover.SymmetryHits), transitions)

	// Everything the decorator did not time is the explorer's own: level
	// loop, frontier, drain, sort, coverage, fingerprint set — and, in the
	// cluster shape, the exchange and the wait for the slower peer.
	m["explorer.self_ns_per_state"] = ratio(wallNs-spansNs, distinct)
	m["explorer.w1_states_per_s"] = ratio(distinct, seconds(bare.wall))
	m["explorer.allocs_per_state"] = ratio(float64(bare.heap.Mallocs), distinct)
	m["explorer.bytes_per_state"] = ratio(float64(bare.heap.Bytes), distinct)
	m["explorer.gc_cycles"] = float64(bare.heap.GCCycles)
	m["explorer.gc_cpu_frac"] = ratio(bare.heap.GCCPUSeconds, seconds(bare.wall))
	m["trace.overhead_frac"] = ratio(seconds(dec.wall)-seconds(bare.wall), seconds(bare.wall))

	// fpset.probes wobbles with scheduling at two workers; this is the
	// single-worker count.
	m["fpset.probes_per_insert"] = ratio(sumSnaps(bare.snaps, "fpset.probes"), transitions)
	m["fpset.fresh_frac"] = ratio(distinct, transitions)
	stream := newKeyStream(st, dec.probes)
	h.replayFpset(o, stream, res.DistinctStates)

	if samples := dec.probes[0].Samples; o.op("samples", len(samples) > 0, "no states were sampled") {
		allocs, bytes := appendNextAllocs(st.Machine().(spec.BufferedMachine), samples)
		m["spec.append_next_allocs_per_succ"] = allocs
		m["spec.append_next_bytes_per_succ"] = bytes
	}

	switch shape {
	case wlSpill:
		snap := bare.snaps[0]
		o.op("spilled", snapNum(snap, "fpset.spilled_entries") > 0 && snapNum(snap, "explorer.frontier_spilled_entries") > 0 && snapNum(snap, "checkpoint.deltas") > 0,
			"spilled_entries %v, frontier_spilled_entries %v, checkpoint.deltas %v",
			snapNum(snap, "fpset.spilled_entries"), snapNum(snap, "explorer.frontier_spilled_entries"), snapNum(snap, "checkpoint.deltas"))
		m["fpset.disk_probes_per_insert"] = ratio(snapNum(snap, "fpset.disk_probes"), transitions)
		m["fpset.spill_bytes_per_state"] = ratio(snapNum(snap, "fpset.spill_bytes"), distinct)
		m["fpset.spill_runs"] = snapNum(snap, "fpset.spill_runs")
		m["explorer.frontier_spill_bytes_per_state"] = ratio(snapNum(snap, "explorer.frontier_spill_bytes"), distinct)
		m["explorer.checkpoint_ns_per_state"] = ratio(snapNum(snap, "phase.checkpoint_ns"), distinct)
		m["explorer.checkpoint_bytes_per_state"] = ratio(float64(bare.ckBytes), distinct)
		m["explorer.checkpoints"] = snapNum(snap, "checkpoints")
		m["explorer.deltas"] = snapNum(snap, "checkpoint.deltas")
		m["explorer.disk_bytes_per_state"] = ratio(float64(dec.diskHigh), distinct)
		h.replayFpsetSpilled(o, stream, dir)
	case wlCluster:
		o.op("wire-used", sumSnaps(bare.snaps, "transport.bytes_sent") > 0, "no bytes crossed the transport")
		m["transport.wire_bytes_per_state"] = ratio(sumSnaps(bare.snaps, "transport.bytes_sent"), distinct)
		var stall float64
		for _, s := range bare.snaps {
			stall = max(stall, snapNum(s, "transport.stall_ns"))
		}
		// The slower peer sets each level's time; the larger stall names who
		// waited.
		m["transport.stall_frac"] = ratio(stall, float64(bare.wall))
		m["transport.barriers"] = snapNum(bare.snaps[0], "transport.barriers")
		m["transport.blocks_sent"] = sumSnaps(bare.snaps, "transport.blocks_sent")
		h.transportReplay(o, st, dec.probes[0].Samples)
	}
	return nil
}

// sampleIndices draws up to k distinct ascending indices below n.
func sampleIndices(seed int64, n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		if i := rng.Intn(n); !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// appendNextAllocs measures what successor enumeration allocates, per
// successor, over the sampled states.
func appendNextAllocs(bm spec.BufferedMachine, states []spec.State) (allocs, bytes float64) {
	var buf []spec.Succ
	for _, s := range states { // grow the buffer outside the measurement
		buf = bm.AppendNext(s, buf[:0])
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	succs := 0
	for _, s := range states {
		buf = bm.AppendNext(s, buf[:0])
		succs += len(buf)
	}
	runtime.ReadMemStats(&b)
	return ratio(float64(b.Mallocs-a.Mallocs), float64(succs)), ratio(float64(b.TotalAlloc-a.TotalAlloc), float64(succs))
}

// keyStream is the recorded input of the fingerprint set: the canonical
// fingerprints of the initial states and, level by level, every (key, parent)
// pair the explorer probed, in order.
type keyStream struct {
	inits  []uint64
	levels []streamLevel
	n      int
}

type streamLevel struct {
	depth   int32
	keys    []uint64
	parents []uint64
}

// newKeyStream assembles the stream from the decorated run's probes. With
// several peers a level is the peers' shares one after the other: together
// they are every candidate of the level, as in a single process.
func newKeyStream(st *sandtable.SandTable, probes []*probe.Machine) *keyStream {
	ks := &keyStream{}
	m := st.Machine()
	if oh, ok := m.(spec.OrbitHasher); ok {
		var sc fp.OrbitScratch
		tab := spec.PermTableFor(oh.NumNodes())
		for _, s := range m.Init() {
			f, _ := oh.OrbitFingerprint(s, tab, &sc)
			ks.inits = append(ks.inits, f)
		}
	}
	byDepth := make(map[int32]*streamLevel)
	for _, pm := range probes {
		k, e, remaining := 0, 0, 0
		var parent uint64
		for _, lv := range pm.Levels {
			if lv.Depth < 0 {
				continue
			}
			sl := byDepth[int32(lv.Depth)]
			if sl == nil {
				sl = &streamLevel{depth: int32(lv.Depth)}
				byDepth[sl.depth] = sl
			}
			for ; k < lv.KeyMark; k++ {
				for remaining == 0 {
					parent, remaining = pm.Expansions[e].Parent, int(pm.Expansions[e].Succs)
					e++
				}
				sl.keys = append(sl.keys, pm.Keys[k])
				sl.parents = append(sl.parents, parent)
				remaining--
			}
		}
	}
	for _, sl := range byDepth {
		ks.levels = append(ks.levels, *sl)
		ks.n += len(sl.keys)
	}
	slices.SortFunc(ks.levels, func(a, b streamLevel) int { return cmp.Compare(a.depth, b.depth) })
	return ks
}

// feed inserts the whole stream into set; atLevel runs after each level.
func (ks *keyStream) feed(set *fpset.Set, atLevel func(depth int32)) time.Duration {
	start := time.Now()
	for _, f := range ks.inits {
		set.Insert(f, f, 0)
	}
	for i := range ks.levels {
		lv := &ks.levels[i]
		for j, k := range lv.keys {
			set.Insert(k, lv.parents[j], lv.depth)
		}
		if atLevel != nil {
			atLevel(lv.depth)
		}
	}
	return time.Since(start)
}

// replayFpset measures the fingerprint set from outside: the recorded stream
// into a fresh set, then lookups along parent chains — what counterexample
// reconstruction does.
func (h *harness) replayFpset(o *outcome, ks *keyStream, distinct int) {
	var ns []float64
	var set *fpset.Set
	for i := 0; i < 5; i++ {
		runtime.GC() // the runs' garbage must not be collected on the replay's time
		set = fpset.New(0)
		ns = append(ns, ratio(float64(ks.feed(set, nil)), float64(ks.n)))
	}
	o.op("fpset-replay", set.Len() == int64(distinct), "the replayed set holds %d fingerprints, the run found %d", set.Len(), distinct)
	m := o.Metrics
	m["fpset.insert_ns_per_op"] = median(ns)
	m["fpset.bytes_per_entry"] = ratio(float64(set.MemBytes()), float64(set.Len()))
	m["fpset.resizes"] = float64(set.Stats().Resizes)

	last := ks.levels[len(ks.levels)-1].keys
	step := max(1, len(last)/h.sz.Samples)
	ops := 0
	start := time.Now()
	for i := 0; i < len(last); i += step {
		for f := last[i]; ; {
			e, ok := set.Lookup(f)
			ops++
			if !ok || e.Depth == 0 || e.Parent == f {
				break
			}
			f = e.Parent
		}
	}
	m["fpset.lookup_ns_per_op"] = ratio(float64(time.Since(start)), float64(ops))
}

// replayFpsetSpilled feeds the same stream to a set that spills at the
// workload's budget, offering a spill at every level mark.
func (h *harness) replayFpsetSpilled(o *outcome, ks *keyStream, dir string) {
	budget, err := explorer.ParseByteSize(h.sz.MemBudget)
	if err != nil {
		o.op("fpset-spill-replay", false, "%v", err)
		return
	}
	var ns []float64
	for i := 0; i < 3; i++ {
		runs := filepath.Join(dir, "fpset-replay")
		runtime.GC()
		set := fpset.New(0)
		// The explorer gives the set half the budget.
		if err := set.EnableSpill(fpset.SpillConfig{Dir: runs, BudgetBytes: budget / 2}); err != nil {
			o.op("fpset-spill-replay", false, "%v", err)
			return
		}
		var spillErr error
		d := ks.feed(set, func(depth int32) {
			if _, err := set.MaybeSpill(depth); err != nil {
				spillErr = err
			}
		})
		spilled := set.Stats().SpilledEntries
		set.CloseSpill()
		os.RemoveAll(runs)
		if !o.op("fpset-spill-replay", spillErr == nil && spilled > 0, "spill error %v, %d entries spilled", spillErr, spilled) {
			return
		}
		ns = append(ns, ratio(float64(d), float64(ks.n)))
	}
	o.Metrics["fpset.spill_insert_ns_per_op"] = median(ns)
}

// transportReplay measures the wire from outside: candidate blocks built from
// the sampled states through the public encode and decode functions, then
// exchanged between two in-process connections.
func (h *harness) transportReplay(o *outcome, st *sandtable.SandTable, states []spec.State) {
	m := st.Machine()
	codec, oh := m.(spec.StateCodec), m.(spec.OrbitHasher)
	tab := spec.PermTableFor(oh.NumNodes())
	var sc fp.OrbitScratch
	cands := make([]transport.Candidate, len(states))
	for i, s := range states {
		f, _ := oh.OrbitFingerprint(s, tab, &sc)
		cands[i] = transport.Candidate{FP: f, Parent: f, Action: uint16(i % 8), State: codec.AppendState(nil, s)}
	}
	slices.SortFunc(cands, func(a, b transport.Candidate) int { return cmp.Compare(a.FP, b.FP) })

	const rounds = 20
	var payload []byte
	var err error
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if payload, err = transport.EncodeBlock(cands); err != nil {
			o.op("transport-encode", false, "%v", err)
			return
		}
	}
	enc := time.Since(start)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		back, err := transport.DecodeWireBlock(payload)
		if !o.op("transport-decode", err == nil && len(back) == len(cands), "%v, %d of %d candidates", err, len(back), len(cands)) {
			return
		}
	}
	dec := time.Since(start)
	o.Metrics["transport.encode_ns_per_cand"] = ratio(float64(enc), float64(rounds*len(cands)))
	o.Metrics["transport.decode_ns_per_cand"] = ratio(float64(dec), float64(rounds*len(cands)))
	o.Metrics["transport.compress_ratio"] = ratio(float64(len(transport.AppendBlock(nil, cands))), float64(len(payload)))

	conns, _ := h.dialPair(make([]*transport.Metrics, 2))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start = time.Now()
	for p, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			blocks := make([][]byte, 2)
			blocks[1-p] = payload
			for tag := uint64(0); tag < rounds && errs[p] == nil; tag++ {
				_, _, errs[p] = c.Exchange(tag, blocks, []byte{byte(p)})
			}
		}()
	}
	wg.Wait()
	if o.op("transport-exchange", errs[0] == nil && errs[1] == nil, "%v / %v", errs[0], errs[1]) {
		o.Metrics["transport.exchange_us_per_round"] = ratio(float64(time.Since(start).Microseconds()), rounds)
	}
}
