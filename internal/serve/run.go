package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/report"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/shrink"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// Artifact file names within a job's directory. TraceJSONL, MetricsJSON, and
// ReportMD have exactly the shape of the CLI's -trace-out, -metrics-out, and
// -report artifacts, so the offline tooling (sandtable report, clustercmp,
// checktrace) consumes them unchanged.
const (
	// TraceJSONL is the structured observability event log.
	TraceJSONL = "trace.jsonl"
	// MetricsJSON is the final metrics snapshot + result summary + coverage.
	MetricsJSON = "metrics.json"
	// ReportMD is the rendered Markdown report. While the job runs, fetching
	// it renders a live partial report; the final render replaces it.
	ReportMD = "report.md"
	// ResultJSON is the operation's result summary on its own.
	ResultJSON = "result.json"
	// CounterexampleJSON is the violating trace (shrunk when the spec asked
	// for it), replayable with `sandtable replay -trace`.
	CounterexampleJSON = "trace.json"
	// CheckpointDir holds exploration snapshots when the job enables
	// checkpointing; a successor job resumes from it via resume_from.
	CheckpointDir = "checkpoint"
)

// validateSpec normalises and bounds-checks a submitted spec against the
// server's budgets. It returns the effective deadline and memory budget.
func (s *Server) validateSpec(js *JobSpec) (time.Duration, int64, error) {
	switch js.Op {
	case "":
		js.Op = "check"
	case "check", "simulate", "conform", "confirm":
	default:
		return 0, 0, fmt.Errorf("unknown op %q (want check, simulate, conform, or confirm)", js.Op)
	}
	if js.System == "" {
		js.System = "gosyncobj"
	}
	if _, err := integrations.Get(js.System); err != nil {
		return 0, 0, err
	}
	if js.Workers == 0 {
		js.Workers = s.opts.DefaultWorkers
	}
	if s.opts.MaxJobStates > 0 && (js.MaxStates <= 0 || js.MaxStates > s.opts.MaxJobStates) {
		js.MaxStates = s.opts.MaxJobStates
	}
	deadline := s.opts.DefaultDeadline
	if js.Deadline != "" {
		d, err := time.ParseDuration(js.Deadline)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("bad deadline %q", js.Deadline)
		}
		deadline = d
	}
	if s.opts.MaxDeadline > 0 && deadline > s.opts.MaxDeadline {
		deadline = s.opts.MaxDeadline
	}
	memBudget := s.opts.MemBudget
	if js.MemBudget != "" {
		n, err := explorer.ParseByteSize(js.MemBudget)
		if err != nil {
			return 0, 0, fmt.Errorf("mem_budget: %w", err)
		}
		memBudget = n
	}
	if js.CheckpointEvery != "" {
		if _, err := time.ParseDuration(js.CheckpointEvery); err != nil {
			return 0, 0, fmt.Errorf("bad checkpoint_every %q", js.CheckpointEvery)
		}
	}
	if js.ProgressEvery != "" {
		if _, err := time.ParseDuration(js.ProgressEvery); err != nil {
			return 0, 0, fmt.Errorf("bad progress_every %q", js.ProgressEvery)
		}
	}
	return deadline, memBudget, nil
}

// buildSession mirrors the CLI's session construction: system lookup, config
// and budget overrides, and defect-set selection.
func buildSession(js JobSpec) (*sandtable.SandTable, error) {
	sys, err := integrations.Get(js.System)
	if err != nil {
		return nil, err
	}
	cfg := sys.DefaultConfig
	if js.Nodes > 0 {
		cfg = spec.Config{Name: fmt.Sprintf("n%dw2", js.Nodes), Nodes: js.Nodes, Workload: []string{"v1", "v2"}}
	}
	bugs := bugdb.VerificationBugs(js.System)
	if js.Fixed {
		bugs = bugdb.NoBugs()
	}
	if js.Bug != "" {
		info, ok := bugdb.ByID(js.Bug)
		if !ok {
			return nil, fmt.Errorf("unknown bug id %q", js.Bug)
		}
		bugs = bugdb.NoBugs().With(info.Key)
	}
	budget := sys.DefaultBudget
	if js.MaxTimeouts > 0 {
		budget.MaxTimeouts = js.MaxTimeouts
	}
	if js.MaxRequests > 0 {
		budget.MaxRequests = js.MaxRequests
	}
	if js.MaxCrashes != nil && *js.MaxCrashes >= 0 {
		budget.MaxCrashes = *js.MaxCrashes
	}
	if js.MaxDirtyCrashes > 0 {
		budget.MaxDirtyCrashes = js.MaxDirtyCrashes
	}
	if js.MaxBuffer > 0 {
		budget.MaxBuffer = js.MaxBuffer
	}
	return sandtable.New(sys, cfg, budget, bugs), nil
}

// runJob executes one job end to end: builds the session, attaches the
// tracer (teed into the job's event fan-out), starts the progress publisher,
// dispatches on the op, and writes the artifact set. It returns the result
// summary for result.json and the job status.
func (s *Server) runJob(j *Job, deadline time.Duration, memBudget int64) (map[string]any, error) {
	st, err := buildSession(j.spec)
	if err != nil {
		return nil, err
	}

	tf, err := os.Create(filepath.Join(j.dir, TraceJSONL))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	tracer := obs.NewTracer(tf)
	tracer.Tee(j.fan.Publish)
	defer tracer.Flush()

	stopProgress := s.startProgress(j)
	defer stopProgress()

	var (
		result map[string]any
		runErr error
	)
	switch j.spec.Op {
	case "check":
		result, runErr = s.runCheck(j, st, tracer, deadline, memBudget)
	case "simulate":
		result, runErr = s.runSimulate(j, st, tracer, deadline)
	case "conform":
		result, runErr = s.runConform(j, st, tracer, deadline)
	case "confirm":
		result, runErr = s.runConfirm(j, st, tracer, deadline)
	default:
		runErr = fmt.Errorf("unknown op %q", j.spec.Op)
	}
	if result != nil {
		if err := s.writeFinalArtifacts(j, result); err != nil && runErr == nil {
			runErr = err
		}
	}
	return result, runErr
}

// startProgress publishes a periodic "progress" event (layer "obs", node -1)
// to the job's fan-out, carrying a snapshot of the run's headline counters.
// These events are service-local: they never enter the JSONL trace and carry
// no tracer sequence number.
func (s *Server) startProgress(j *Job) (stop func()) {
	interval := time.Second
	if j.spec.ProgressEvery != "" {
		if d, err := time.ParseDuration(j.spec.ProgressEvery); err == nil && d > 0 {
			interval = d
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				snap := j.reg.Snapshot()
				detail := make(map[string]string, len(progressKeys)+1)
				detail["job"] = j.id
				for _, k := range progressKeys {
					if v, ok := snap[k].(int64); ok {
						detail[k] = strconv.FormatInt(v, 10)
					}
				}
				j.fan.Publish(obs.Event{
					V:      obs.TraceSchemaVersion,
					Layer:  "obs",
					Kind:   "progress",
					Node:   -1,
					Detail: detail,
				})
			}
		}
	}()
	return func() { close(done) }
}

// checkOptions assembles the explorer options for a check/confirm job.
func (s *Server) checkOptions(j *Job, st *sandtable.SandTable, tracer *obs.Tracer, deadline time.Duration, memBudget int64) (explorer.Options, error) {
	opts := explorer.DefaultOptions()
	opts.Deadline = deadline
	opts.Workers = j.spec.Workers
	opts.MaxStates = j.spec.MaxStates
	opts.MemBudget = memBudget
	opts.Cover = true
	opts.Metrics = j.reg
	opts.Tracer = tracer
	opts.Context = j.ctx
	if j.spec.CheckpointEvery != "" || j.spec.CheckpointStates > 0 || j.spec.ResumeFrom != "" {
		ck := explorer.CheckpointOptions{
			Dir:         filepath.Join(j.dir, CheckpointDir),
			EveryStates: j.spec.CheckpointStates,
			Label:       st.Label(),
		}
		if j.spec.CheckpointEvery != "" {
			d, err := time.ParseDuration(j.spec.CheckpointEvery)
			if err != nil {
				return opts, fmt.Errorf("bad checkpoint_every %q", j.spec.CheckpointEvery)
			}
			ck.Interval = d
		}
		if j.spec.ResumeFrom != "" {
			src, err := s.checkpointOf(j.spec.ResumeFrom)
			if err != nil {
				return opts, err
			}
			if err := copyDir(src, ck.Dir); err != nil {
				return opts, fmt.Errorf("resume_from %s: %w", j.spec.ResumeFrom, err)
			}
			ck.Resume = true
		}
		opts.Checkpoint = ck
	}
	return opts, nil
}

// runCheck executes a BFS model-checking job and writes the counterexample
// artifact when a violation is found.
func (s *Server) runCheck(j *Job, st *sandtable.SandTable, tracer *obs.Tracer, deadline time.Duration, memBudget int64) (map[string]any, error) {
	opts, err := s.checkOptions(j, st, tracer, deadline, memBudget)
	if err != nil {
		return nil, err
	}
	stop := j.reg.StartPhase("explore")
	res := st.Check(opts)
	stop()
	j.setCover(res.Cover)
	summary := res.Summary()
	if res.Err != nil {
		return summary, res.Err
	}
	if v := res.FirstViolation(); v != nil {
		if err := s.writeCounterexample(j, st, v.Trace, v.Invariant, tracer, summary); err != nil {
			return summary, err
		}
	}
	return summary, nil
}

// runSimulate executes a random-walk simulation job.
func (s *Server) runSimulate(j *Job, st *sandtable.SandTable, tracer *obs.Tracer, deadline time.Duration) (map[string]any, error) {
	ctx, cancel := context.WithTimeout(j.ctx, deadline)
	defer cancel()
	walks := j.spec.Walks
	if walks <= 0 {
		walks = 100
	}
	seed := j.spec.Seed
	if seed == 0 {
		seed = 1
	}
	sim := explorer.NewSimulator(st.Machine(), explorer.SimOptions{
		MaxDepth: j.spec.Depth, Seed: seed, CheckInvariants: true,
		TrackDistinct: j.spec.Distinct, RecordVars: j.spec.Shrink,
		Metrics: j.reg, Tracer: tracer, Cover: true, Context: ctx,
	})
	stop := j.reg.StartPhase("simulate")
	results := sim.Walks(walks)
	stop()
	j.setCover(sim.Cover())
	agg := explorer.Aggregate(results)
	summary := map[string]any{
		"walks":           agg.Walks,
		"branch_coverage": agg.BranchCoverage,
		"event_diversity": agg.EventDiversity,
		"max_depth":       agg.MaxDepth,
		"mean_depth":      agg.MeanDepth,
		"violations":      agg.Violations,
		"distinct_states": agg.DistinctStates,
	}
	for _, w := range results {
		if w.Violation != nil {
			if err := s.writeCounterexample(j, st, w.Trace, w.Violation.Invariant, tracer, summary); err != nil {
				return summary, err
			}
			break
		}
	}
	if ctx.Err() != nil && j.ctx.Err() != nil {
		summary["stop_reason"] = "canceled"
	}
	return summary, nil
}

// runConform executes a conformance-checking job. Conformance rounds have no
// mid-walk cancellation point, so canceling a running conform job takes
// effect only once the current round of walks completes.
func (s *Server) runConform(j *Job, st *sandtable.SandTable, tracer *obs.Tracer, deadline time.Duration) (map[string]any, error) {
	walks := j.spec.Walks
	if walks <= 0 {
		walks = 200
	}
	depth := j.spec.Depth
	if depth <= 0 {
		depth = 30
	}
	seed := j.spec.Seed
	if seed == 0 {
		seed = 1
	}
	workers := j.spec.Workers
	if workers <= 0 {
		workers = 1
	}
	stop := j.reg.StartPhase("conform")
	rep, err := st.Conform(conformance.Options{
		Walks: walks, WalkDepth: depth, Seed: seed, Workers: workers,
		Metrics: j.reg, Tracer: tracer,
	})
	stop()
	if err != nil {
		return nil, err
	}
	summary := map[string]any{"walks": rep.Walks, "events_checked": rep.EventsChecked, "passed": rep.Passed()}
	if !rep.Passed() {
		d := rep.Discrepancy
		summary["discrepancy"] = d.Error()
		dtrace := d.Trace
		if j.spec.Shrink {
			oracle := shrink.DivergenceOracle(func(seed int64) (*engine.Cluster, error) {
				return st.Sys.NewCluster(st.Config, st.ImplBugs, seed)
			}, d.Seed, replay.Options{IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe}, d.Step)
			dtrace = s.shrinkTrace(j, st, dtrace, oracle, tracer, summary)
		}
		if err := s.writeTraceArtifact(j, dtrace); err != nil {
			return summary, err
		}
	}
	return summary, nil
}

// runConfirm executes check + implementation-level replay, mirroring the
// CLI's confirm subcommand.
func (s *Server) runConfirm(j *Job, st *sandtable.SandTable, tracer *obs.Tracer, deadline time.Duration) (map[string]any, error) {
	opts, err := s.checkOptions(j, st, tracer, deadline, 0)
	if err != nil {
		return nil, err
	}
	stopExplore := j.reg.StartPhase("explore")
	res := st.Check(opts)
	stopExplore()
	j.setCover(res.Cover)
	summary := res.Summary()
	if res.Err != nil {
		return summary, res.Err
	}
	v := res.FirstViolation()
	if v == nil {
		return summary, fmt.Errorf("no violation found to confirm (%d states)", res.DistinctStates)
	}
	ctrace := v.Trace
	if j.spec.Shrink {
		ctrace = s.shrinkTrace(j, st, ctrace, shrink.InvariantOracle(st.Machine(), v.Invariant), tracer, summary)
	}
	if err := s.writeTraceArtifact(j, ctrace); err != nil {
		return summary, err
	}
	stopReplay := j.reg.StartPhase("replay")
	cluster, err := st.Sys.NewCluster(st.Config, st.ImplBugs, 1)
	if err != nil {
		return summary, err
	}
	conf, err := replay.ConfirmBug(ctrace, cluster, replay.Options{
		IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe,
		Tracer: tracer, Metrics: j.reg,
	})
	if err != nil {
		return summary, err
	}
	stopReplay()
	summary["replay_steps"] = conf.Steps
	summary["confirmed"] = conf.Confirmed
	if !conf.Confirmed {
		summary["divergence"] = conf.Divergence.Describe()
	}
	return summary, nil
}

// shrinkTrace minimizes tr with ddmin, keeping the original on failure and
// recording the reduction in the summary — the CLI's -shrink behaviour.
func (s *Server) shrinkTrace(j *Job, st *sandtable.SandTable, tr *trace.Trace, oracle shrink.Oracle, tracer *obs.Tracer, summary map[string]any) *trace.Trace {
	res, err := shrink.Minimize(st.Machine(), tr, oracle, shrink.Options{Metrics: j.reg, Tracer: tracer})
	if err != nil {
		return tr
	}
	summary["shrink_original_len"] = res.OriginalLen
	summary["shrink_minimized_len"] = res.MinimizedLen
	summary["shrink_attempts"] = res.Attempts
	return res.Trace
}

// writeCounterexample optionally shrinks the violating trace and writes it
// as the replayable trace.json artifact.
func (s *Server) writeCounterexample(j *Job, st *sandtable.SandTable, tr *trace.Trace, invariant string, tracer *obs.Tracer, summary map[string]any) error {
	if j.spec.Shrink {
		tr = s.shrinkTrace(j, st, tr, shrink.InvariantOracle(st.Machine(), invariant), tracer, summary)
	}
	return s.writeTraceArtifact(j, tr)
}

// writeTraceArtifact encodes tr as the job's trace.json.
func (s *Server) writeTraceArtifact(j *Job, tr *trace.Trace) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(j.dir, CounterexampleJSON))
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.Encode(f)
}

// metricsSnapshot builds the metrics artifact payload: the registry snapshot
// stamped with the schema version and merged with the result summary and
// coverage profile — the exact shape of the CLI's -metrics-out file.
func (j *Job) metricsSnapshot(result map[string]any) map[string]any {
	snap := j.reg.Snapshot()
	snap["schema"] = obs.MetricsSchemaVersion
	if result != nil {
		snap["result"] = result
	}
	if c := j.getCover(); c != nil {
		snap["cover"] = c
	}
	return snap
}

// writeFinalArtifacts writes result.json, metrics.json, and the final
// report.md for a finished run.
func (s *Server) writeFinalArtifacts(j *Job, result map[string]any) error {
	if err := writeJSON(filepath.Join(j.dir, ResultJSON), result); err != nil {
		return err
	}
	snap := j.metricsSnapshot(result)
	if err := writeJSON(filepath.Join(j.dir, MetricsJSON), snap); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(j.dir, ReportMD))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.Render(f, j.reportData(snap, ""))
}

// reportData assembles the report input for a job; note marks live renders.
func (j *Job) reportData(snap map[string]any, note string) *report.Data {
	return &report.Data{
		Title:   fmt.Sprintf("sandtable serve: %s %s (%s)", j.spec.Op, j.spec.System, j.id),
		Source:  "sandtable serve job " + j.id,
		Metrics: snap,
		Cover:   j.getCover(),
		Note:    note,
	}
}

// renderLiveReport streams a report for a still-running job to w, marked as
// partial — the render-to-writer path, no file involved.
func (j *Job) renderLiveReport(w io.Writer) error {
	return report.Render(w, j.reportData(j.metricsSnapshot(nil), "Partial report: the job is still running."))
}

// checkpointOf resolves the checkpoint directory of an earlier job and
// verifies it holds a snapshot. The base snapshot is the test: a commit
// record exists only while a delta chain extends the base, and every
// compaction removes it.
func (s *Server) checkpointOf(id string) (string, error) {
	src, ok := s.getJob(id)
	if !ok {
		return "", fmt.Errorf("resume_from: no such job %q", id)
	}
	dir := filepath.Join(src.dir, CheckpointDir)
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.snap")); err != nil {
		return "", fmt.Errorf("resume_from: job %s has no checkpoint", id)
	}
	return dir, nil
}

// copyDir copies the regular files of src into dst (created if needed). The
// checkpoint layout is flat, so no recursion is required.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one regular file.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeJSON marshals v with indentation to path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
