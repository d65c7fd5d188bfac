package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// rig is what setup prepares for one run of a workload.
type rig struct {
	dir string
	// daemon is the workflow's `sandtable serve` process, started during
	// setup so that serve_job_s times a job against a warm service.
	daemon *daemon
}

// setUp performs one complete set-up of a workload and times it: the
// (normally up-to-date) binary build, the scratch directories, and the
// workload's own preparation — a free port pair for the cluster, a listening
// and healthy daemon for the workflow.
func (h *harness) setUp(workload string, n int) (*rig, time.Duration, error) {
	start := time.Now()
	if _, err := h.buildBinary(); err != nil {
		return nil, 0, err
	}
	r := &rig{dir: filepath.Join(h.work, fmt.Sprintf("%s-%d", workload, n))}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, 0, err
	}
	switch workload {
	case wlCluster:
		if _, err := h.pickPeers(2); err != nil {
			return nil, 0, err
		}
	case wlWorkflow:
		d, err := h.startDaemon(filepath.Join(r.dir, "jobs"))
		if err != nil {
			return nil, 0, err
		}
		r.daemon = d
	}
	return r, time.Since(start), nil
}

// tearDown stops what setUp started and returns the daemon's accounting.
func (h *harness) tearDown(r *rig) *childRun {
	var run *childRun
	if r.daemon != nil {
		run = r.daemon.proc.stop()
	}
	os.RemoveAll(r.dir)
	return run
}

// measuredSetUp sets up SetupReps times, keeps the last rig, and reports the
// median set-up time: one measurement of a sub-second interval is noise.
func (h *harness) measuredSetUp(workload string) (*rig, float64, error) {
	var times []float64
	var last *rig
	for i := 0; i < h.sz.SetupReps; i++ {
		if last != nil {
			h.tearDown(last)
		}
		r, d, err := h.setUp(workload, i)
		if err != nil {
			return nil, 0, err
		}
		last = r
		times = append(times, seconds(d))
	}
	return last, median(times), nil
}

// pickPeers finds n consecutive free loopback ports and returns them as a
// -peers list. The search starts at a port derived from the PID, so
// concurrent harnesses do not collide, and every call moves on, so successive
// cluster runs never wait on a port the previous run is still releasing.
func (h *harness) pickPeers(n int) (string, error) {
	if h.nextPort == 0 {
		h.nextPort = 30000 + (os.Getpid()%6000)*4
	}
	var lastErr error
	for try := 0; try < 200; try++ {
		base := h.nextPort
		h.nextPort += n
		if h.nextPort > 60000 {
			h.nextPort = 30000
		}
		addrs := make([]string, n)
		free := true
		for i := range addrs {
			addrs[i] = "127.0.0.1:" + strconv.Itoa(base+i)
			ln, err := net.Listen("tcp", addrs[i])
			if err != nil {
				free, lastErr = false, err
				break
			}
			ln.Close()
		}
		if free {
			return strings.Join(addrs, ","), nil
		}
	}
	return "", fmt.Errorf("no free loopback port pair: %w", lastErr)
}

// samples pools the iterations of one run. Every end-to-end metric is a
// ratio — work over time, time over work, or a time over one operation — and
// is reported as the window's total numerator over its total denominator, not
// as the median of per-iteration ratios: iteration times on this input are
// spread flat over ±10 % rather than clustered with outliers, and on such data
// the pooled value repeats twice as well as the median (README.md has the
// measurement).
type samples map[string]*pooled

type pooled struct {
	num, den float64
	each     []float64
}

func (s samples) addRatio(name string, num, den float64) {
	p := s[name]
	if p == nil {
		p = &pooled{}
		s[name] = p
	}
	p.num += num
	p.den += den
	p.each = append(p.each, ratio(num, den))
}

// add pools a per-operation quantity: the result is its mean.
func (s samples) add(name string, v float64) { s.addRatio(name, v, 1) }

// runE2E is one tracing-off run of a workload: set up, iterate inside the
// measuring window, tear down, and report every end-to-end metric pooled over
// the iterations.
func (h *harness) runE2E(workload string) (*outcome, error) {
	o := h.newOutcome(workload, false)
	r, setupS, err := h.measuredSetUp(workload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s := make(samples)
	// The iteration's peak is its largest child; the run's is the mean over
	// iterations, or the daemon if that grew larger.
	rss := func(runs ...*childRun) float64 {
		var peak float64
		for _, c := range runs {
			if c != nil {
				peak = max(peak, float64(c.MaxRSSKiB)/1024)
			}
		}
		return peak
	}
	o.Iterations = h.window(func(i int) bool {
		before := o.Failed
		var runs []*childRun
		switch workload {
		case wlInRAM:
			runs = []*childRun{h.iterInRAM(o, r, s)}
		case wlSpill:
			runs = h.iterSpill(o, r, s)
		case wlCluster:
			runs = h.iterCluster(o, r, s)
		case wlWorkflow:
			runs = h.iterWorkflow(o, r, s, i)
		}
		s.add("peak_rss_mb", rss(runs...))
		return o.Failed == before
	})
	daemonPeak := rss(h.tearDown(r))

	o.Metrics["setup_s"] = setupS
	for name, p := range s {
		o.Metrics[name] = ratio(p.num, p.den)
		h.logf("%s %s per iteration: %.4g", workload, name, p.each)
	}
	o.Metrics["peak_rss_mb"] = max(o.Metrics["peak_rss_mb"], daemonPeak)
	return o, nil
}

// checkArgs is the input all three explore workloads share.
func (h *harness) checkArgs(extra ...string) []string {
	return append([]string{"check", "-system", h.sz.System, "-fixed",
		"-max-states", strconv.Itoa(h.sz.MaxStates), "-trace=false"}, extra...)
}

// exploreCounts records the result counters of a check artifact; across
// iterations they must repeat exactly.
func exploreCounts(o *outcome, m map[string]any) {
	res := sub(m, "result")
	o.count("distinct_states", int64(num(res, "distinct_states")))
	o.count("transitions", int64(num(res, "transitions")))
	o.count("max_depth", int64(num(res, "max_depth")))
	stop, _ := res["stop_reason"].(string)
	o.op("stop_reason", stop == "max-states", "stop_reason %q, want max-states", stop)
}

// exploreSamples turns one check process (or a cluster's coordinator plus the
// CPU of every peer) into the end-to-end samples every explore workload
// reports. The last three are not native to exploration; README.md says what
// each stands for.
func exploreSamples(s samples, lead *childRun, cpu time.Duration, m map[string]any) {
	res := sub(m, "result")
	distinct, wall := num(res, "distinct_states"), seconds(lead.Wall)
	s.addRatio("states_per_s", distinct, wall)
	s.addRatio("cpu_s_per_mstate", seconds(cpu), distinct/1e6)
	s.addRatio("conform_events_per_s", num(res, "transitions"), wall)
	verdict, ok := lead.lineAt("no invariant violation found")
	if !ok {
		verdict = lead.Wall
	}
	s.add("confirm_verdict_s", seconds(verdict))
	s.add("serve_job_s", wall)
}

func (h *harness) iterInRAM(o *outcome, r *rig, s samples) *childRun {
	mf := filepath.Join(r.dir, "metrics.json")
	run := h.runChild(2, h.sz.ChildDeadline, h.checkArgs("-workers", "2", "-metrics-out", mf)...)
	if !o.childDone(run, "2") {
		return run
	}
	m, err := readMetrics(mf)
	if !o.op("metrics-out", err == nil, "%v", err) {
		return run
	}
	exploreCounts(o, m)
	for _, k := range []string{"fpset.spilled_entries", "explorer.frontier_spilled_entries", "checkpoint.deltas", "transport.bytes_sent"} {
		o.op("zero:"+k, num(m, k) == 0, "%s = %v on the in-RAM run", k, num(m, k))
	}
	exploreSamples(s, run, run.CPU, m)
	// Nothing is on disk to resume from: recovery is a full re-run.
	s.add("resume_s", seconds(run.Wall))
	return run
}

func (h *harness) iterSpill(o *outcome, r *rig, s samples) []*childRun {
	spill, ck := filepath.Join(r.dir, "spill"), filepath.Join(r.dir, "checkpoint")
	defer os.RemoveAll(spill)
	defer os.RemoveAll(ck)
	mf, rf := filepath.Join(r.dir, "metrics.json"), filepath.Join(r.dir, "resume.json")
	args := h.checkArgs("-workers", "2", "-mem-budget", h.sz.MemBudget, "-spill-dir", spill,
		"-checkpoint", ck, "-checkpoint-states", strconv.Itoa(h.sz.CheckpointStates))

	run := h.runChild(2, h.sz.ChildDeadline, slices.Concat(args, []string{"-metrics-out", mf})...)
	if !o.childDone(run, "2") {
		return []*childRun{run}
	}
	m, err := readMetrics(mf)
	if !o.op("metrics-out", err == nil, "%v", err) {
		return []*childRun{run}
	}
	exploreCounts(o, m)
	for _, k := range []string{"fpset.spilled_entries", "explorer.frontier_spilled_entries", "checkpoint.deltas"} {
		o.op("positive:"+k, num(m, k) > 0, "%s = %v on the spilled run", k, num(m, k))
	}
	exploreSamples(s, run, run.CPU, m)

	// Recovery: reload base + deltas, rebuild the frontier by guided replay,
	// redo the level the stop cut short.
	res := h.runChild(2, h.sz.ChildDeadline, slices.Concat(args, []string{"-resume", "-metrics-out", rf})...)
	if !o.childDone(res, "2") {
		return []*childRun{run, res}
	}
	rm, err := readMetrics(rf)
	if !o.op("resume-metrics-out", err == nil, "%v", err) {
		return []*childRun{run, res}
	}
	resumed, _ := sub(rm, "result")["resumed"].(bool)
	o.op("resumed", resumed, "the -resume run reports resumed: false")
	// Same names as the main run: a resumed run that counts differently
	// fails the repeat check.
	exploreCounts(o, rm)
	s.add("resume_s", seconds(res.Wall))
	return []*childRun{run, res}
}

func (h *harness) iterCluster(o *outcome, r *rig, s samples) []*childRun {
	peers, err := h.pickPeers(2)
	if !o.op("ports", err == nil, "%v", err) {
		return nil
	}
	files := []string{filepath.Join(r.dir, "peer0.json"), filepath.Join(r.dir, "peer1.json")}
	procs := make([]*child, 2)
	// Peer 1 first: the coordinator's wall clock then includes only its own
	// share of the handshake.
	for _, id := range []int{1, 0} {
		procs[id], err = h.startChild(1, h.sz.ChildDeadline, h.checkArgs("-workers", "1",
			"-peers", peers, "-peer-id", strconv.Itoa(id), "-metrics-out", files[id])...)
		if !o.op("start-peer", err == nil, "%v", err) {
			if id == 0 {
				procs[1].cancel()
				procs[1].wait()
			}
			return nil
		}
	}
	runs := []*childRun{procs[0].wait(), procs[1].wait()}
	ok := o.childDone(runs[0], "1")
	if !o.childDone(runs[1], "1") || !ok {
		return runs
	}
	var ms [2]map[string]any
	for id := range ms {
		ms[id], err = readMetrics(files[id])
		if !o.op("metrics-out", err == nil, "%v", err) {
			return runs
		}
		o.op("positive:transport.bytes_sent", num(ms[id], "transport.bytes_sent") > 0,
			"peer %d sent no bytes", id)
	}
	// Both peers derive the cluster-wide totals from the same barriers;
	// recording peer 1's under peer 0's names asserts they agree.
	exploreCounts(o, ms[0])
	exploreCounts(o, ms[1])
	exploreSamples(s, runs[0], runs[0].CPU+runs[1].CPU, ms[0])
	s.add("resume_s", seconds(runs[0].Wall))
	return runs
}

// iterWorkflow is the paper's method on the implementation side: conformance
// checking, confirmation of a fixed list of catalogued bugs, and one of those
// confirmations again as an HTTP job.
func (h *harness) iterWorkflow(o *outcome, r *rig, s samples, i int) []*childRun {
	var runs []*childRun
	var total time.Duration

	mf := filepath.Join(r.dir, "conform.json")
	run := h.runChild(2, h.sz.ChildDeadline, "conform", "-system", h.sz.ConformSystem, "-fixed",
		"-walks", strconv.Itoa(h.sz.Walks), "-depth", strconv.Itoa(h.sz.WalkDepth),
		"-workers", "2", "-seed", strconv.FormatInt(h.seed, 10), "-metrics-out", mf)
	runs = append(runs, run)
	if !o.childDone(run, "2") {
		return runs
	}
	m, err := readMetrics(mf)
	if !o.op("conform-metrics-out", err == nil, "%v", err) {
		return runs
	}
	res := sub(m, "result")
	passed, _ := res["passed"].(bool)
	o.op("conform-passed", passed, "conformance found a discrepancy: %v", res["discrepancy"])
	o.op("conform-walks", int(num(res, "walks")) == h.sz.Walks, "%v walks replayed, want %d", num(res, "walks"), h.sz.Walks)
	o.count(fmt.Sprintf("conform_events.seed%d", h.seed), int64(num(res, "events_checked")))
	s.addRatio("conform_events_per_s", num(res, "events_checked"), seconds(run.Wall))
	total += run.Wall

	var verdicts, wall, cpu time.Duration
	var distinct float64
	var first map[string]any
	for _, b := range h.sz.Bugs {
		bf := filepath.Join(r.dir, "confirm.json")
		run := h.runChild(2, h.sz.ChildDeadline, "confirm", "-system", b.System, "-bug", b.ID, "-shrink", "-metrics-out", bf)
		runs = append(runs, run)
		// confirm has no -workers flag: it uses every CPU the machine has.
		if !o.childDone(run, "numcpu") {
			return runs
		}
		at, ok := run.lineAt("CONFIRMED")
		o.op("confirmed:"+b.ID, ok, "no CONFIRMED line; output: %v", run.Lines)
		_, named := run.lineAt("violation: " + b.Invariant + " at depth")
		o.op("invariant:"+b.ID, named, "not reported at invariant %s; output: %v", b.Invariant, run.Lines)
		bm, err := readMetrics(bf)
		if !o.op("confirm-metrics-out", err == nil, "%v", err) {
			return runs
		}
		br := sub(bm, "result")
		o.count("confirm_states:"+b.ID, int64(num(br, "distinct_states")))
		if first == nil {
			first = br
		}
		verdicts += at
		wall += run.Wall
		cpu += run.CPU
		distinct += num(br, "distinct_states")
	}
	s.add("confirm_verdict_s", seconds(verdicts))
	s.addRatio("states_per_s", distinct, seconds(wall))
	s.addRatio("cpu_s_per_mstate", seconds(cpu), distinct/1e6)
	total += wall

	b := h.sz.Bugs[0]
	trip, err := r.daemon.runJob(map[string]any{
		"op": "confirm", "system": b.System, "bug": b.ID, "shrink": true, "workers": 2,
	}, filepath.Join(r.dir, fmt.Sprintf("job-%d", i)), h.sz.ChildDeadline)
	if !o.op("serve-job", err == nil, "%v", err) {
		return runs
	}
	// An HTTP job and a CLI invocation are the same check.
	for _, k := range []string{"distinct_states", "transitions", "max_depth", "violations", "replay_steps"} {
		o.op("serve-equals-cli:"+k, num(trip.Result, k) == num(first, k),
			"job %s = %v, CLI = %v", k, num(trip.Result, k), num(first, k))
	}
	o.op("serve-equals-cli:stop_reason", trip.Result["stop_reason"] == first["stop_reason"],
		"job %v, CLI %v", trip.Result["stop_reason"], first["stop_reason"])
	o.op("serve-confirmed", trip.Result["confirmed"] == true, "job result: confirmed = %v", trip.Result["confirmed"])
	o.op("serve-artifacts", trip.Artifacts >= 4, "only %d artifacts downloaded", trip.Artifacts)
	s.add("serve_job_s", seconds(trip.Fetched))
	total += trip.Fetched

	// Nothing here checkpoints: recovering a lost result is a full re-run.
	s.add("resume_s", seconds(total))
	return runs
}
