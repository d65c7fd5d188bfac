package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/shrink"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// tracedWorkflow is the traced run of the workflow workload: the first bug's
// confirmation search through the decorator, then conformance, shrinking and
// the service, each timed around its public entry points.
func (h *harness) tracedWorkflow(o *outcome, log *spanLog, dir string) error {
	b := h.sz.Bugs[0]
	st, err := session(b.System, b.ID)
	if err != nil {
		return err
	}
	base := explorer.DefaultOptions() // what `sandtable confirm` uses
	base.Deadline = h.sz.ChildDeadline
	if err := h.traceShape(o, log, st, wlWorkflow, base, dir); err != nil {
		return err
	}
	if err := h.traceConformance(o, log); err != nil {
		return err
	}
	if err := h.traceShrink(o, log); err != nil {
		return err
	}
	h.traceServe(o, log, dir)
	return nil
}

// traceConformance walks the conformance loop by hand — the same three calls
// conformance.Run makes per walk — so each can be timed on its own, then
// re-applies every walk's commands without observation to split replay.Run
// into engine time and observe-and-compare time.
func (h *harness) traceConformance(o *outcome, log *spanLog) error {
	st, err := session(h.sz.ConformSystem, "")
	if err != nil {
		return err
	}
	sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{
		MaxDepth: h.sz.WalkDepth, Seed: h.seed, RecordVars: true,
	})
	ropts := replay.Options{CompareEachStep: true, IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe}
	if check := st.Sys.ResourceCheck; check != nil {
		ropts.AfterStep = func(_ int, c *engine.Cluster) error { return check(c) }
	}

	walks := h.sz.TracedWalks
	traces := make([]*trace.Trace, 0, walks)
	var walkNs, bootNs, runNs time.Duration
	steps := 0
	start := time.Now()
	for w := 0; w < walks; w++ {
		seed := h.seed + int64(w)
		t0 := time.Now()
		walk := sim.Walk(seed)
		t1 := time.Now()
		cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, seed)
		if err != nil {
			return fmt.Errorf("boot cluster: %w", err)
		}
		t2 := time.Now()
		res, err := replay.Run(walk.Trace, cluster, ropts)
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("replay walk %d: %w", w, err)
		}
		if !o.op("conform-walk", res.Divergence == nil, "walk %d (seed %d) diverged", w, seed) {
			return nil
		}
		walkNs += t1.Sub(t0)
		bootNs += t2.Sub(t1)
		runNs += t3.Sub(t2)
		steps += res.Steps
		traces = append(traces, walk.Trace)
	}
	total := time.Since(start)

	reg := obs.NewRegistry()
	var applyNs time.Duration
	cmds := 0
	for w, tr := range traces {
		cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, h.seed+int64(w))
		if err != nil {
			return fmt.Errorf("boot cluster: %w", err)
		}
		cluster.SetMetrics(reg)
		t0 := time.Now()
		for _, step := range tr.Steps {
			if cmd, ok := replay.Convert(step.Event); ok {
				if err := cluster.Apply(cmd); err != nil {
					return fmt.Errorf("apply %s: %w", cmd, err)
				}
				cmds++
			}
		}
		applyNs += time.Since(t0)
	}
	o.op("apply-replays-every-step", cmds == steps, "applied %d commands, replay.Run executed %d steps", cmds, steps)
	o.count(fmt.Sprintf("traced.conform_events.seed%d", h.seed), int64(steps))

	root := log.add(Span{Run: "workflow/conform", Name: "conformance.run", EndNs: int64(total)})
	log.add(Span{Parent: root, Run: "workflow/conform", Name: "conformance.walk", EndNs: int64(total), BusyNs: int64(walkNs), Calls: int64(walks), Items: int64(steps)})
	log.add(Span{Parent: root, Run: "workflow/conform", Name: "engine.new_cluster", EndNs: int64(total), BusyNs: int64(bootNs), Calls: int64(walks)})
	run := log.add(Span{Parent: root, Run: "workflow/conform", Name: "replay.run", EndNs: int64(total), BusyNs: int64(runNs), Calls: int64(walks), Items: int64(steps)})
	log.add(Span{Parent: run, Run: "workflow/conform", Name: "engine.apply", EndNs: int64(total), BusyNs: int64(applyNs), Calls: int64(cmds)})

	m := o.Metrics
	m["engine.new_cluster_us"] = ratio(float64(bootNs.Microseconds()), float64(walks))
	m["engine.apply_ns_per_cmd"] = ratio(float64(applyNs), float64(cmds))
	m["engine.syncs_per_cmd"] = ratio(snapNum(reg.Snapshot(), "engine.syncs"), float64(cmds))
	m["replay.run_ns_per_step"] = ratio(float64(runNs), float64(steps))
	m["replay.observe_ns_per_step"] = ratio(float64(runNs-applyNs), float64(steps))
	m["conformance.walk_ns_per_event"] = ratio(float64(walkNs), float64(steps))
	m["conformance.replay_share"] = ratio(float64(bootNs+runNs), float64(walkNs+bootNs+runNs))
	m["conformance.events_per_walk"] = ratio(float64(steps), float64(walks))
	return nil
}

// traceShrink minimizes the seed's first violating random walk of the buggy
// build. (Breadth-first counterexamples are already minimal — ddmin removes 0
// of GoSyncObj#2's 13 events — so shrinking one would measure nothing.)
func (h *harness) traceShrink(o *outcome, log *spanLog) error {
	st, err := integrations.Session(h.sz.ConformSystem)
	if err != nil {
		return err
	}
	walk := firstViolatingWalk(st, h.seed, 40, 20000)
	if !o.op("violating-walk", walk != nil, "no violating walk among 20000 from seed %d", h.seed) {
		return nil
	}
	m := st.Machine()
	start := time.Now()
	res, err := shrink.Minimize(m, walk.Trace, shrink.InvariantOracle(m, walk.Violation.Invariant), shrink.Options{})
	d := time.Since(start)
	if !o.op("shrink", err == nil, "%v", err) {
		return nil
	}
	candidates := res.Attempts + res.Invalid
	log.add(Span{Run: "workflow/shrink", Name: "shrink.minimize", EndNs: int64(d), Calls: int64(candidates)})
	o.count("traced.shrink_original_len", int64(res.OriginalLen))
	o.count("traced.shrink_minimized_len", int64(res.MinimizedLen))
	o.Metrics["shrink.ns_per_attempt"] = ratio(float64(d), float64(candidates))
	o.Metrics["shrink.attempts"] = float64(candidates)
	o.Metrics["shrink.removed_frac"] = ratio(float64(res.Removed), float64(res.OriginalLen))
	return nil
}

func firstViolatingWalk(st *sandtable.SandTable, seed int64, depth, limit int) *explorer.WalkResult {
	sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{
		MaxDepth: depth, Seed: seed, CheckInvariants: true, RecordVars: true,
	})
	for w := 0; w < limit; w++ {
		if walk := sim.Walk(seed + int64(w)); walk.Violation != nil {
			return walk
		}
	}
	return nil
}

// traceServe times one job against the service from the client's side.
func (h *harness) traceServe(o *outcome, log *spanLog, dir string) {
	d, err := h.startDaemon(filepath.Join(dir, "jobs"))
	if !o.op("serve-daemon", err == nil, "%v", err) {
		return
	}
	defer d.proc.stop()
	b := h.sz.Bugs[0]
	trip, err := d.runJob(map[string]any{
		"op": "confirm", "system": b.System, "bug": b.ID, "shrink": true, "workers": 1,
	}, filepath.Join(dir, "job"), h.sz.ChildDeadline)
	if !o.op("serve-job", err == nil, "%v", err) {
		return
	}
	root := log.add(Span{Run: "workflow/serve", Name: "serve.job", EndNs: int64(trip.Fetched)})
	log.add(Span{Parent: root, Run: "workflow/serve", Name: "serve.submit", EndNs: int64(trip.Accepted)})
	log.add(Span{Parent: root, Run: "workflow/serve", Name: "serve.queued", StartNs: int64(trip.Accepted), EndNs: int64(trip.Running)})
	log.add(Span{Parent: root, Run: "workflow/serve", Name: "serve.running", StartNs: int64(trip.Running), EndNs: int64(trip.Done)})
	log.add(Span{Parent: root, Run: "workflow/serve", Name: "serve.artifacts", StartNs: int64(trip.Done), EndNs: int64(trip.Fetched), Calls: int64(trip.Artifacts), Items: trip.Bytes})
	o.Metrics["serve.queue_wait_ms"] = millis(trip.QueueWait)
	o.Metrics["serve.submit_to_running_ms"] = millis(trip.Running)
	o.Metrics["serve.artifact_fetch_ms"] = millis(trip.Fetched - trip.Done)
}
