package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/report"
	"github.com/sandtable-go/sandtable/internal/sandtable"
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
// server's budgets — once, at submission — and resolves it into the run
// layer's settings plus the SSE progress cadence. Zero fields defer to the
// defaults the CLI's flags carry (sandtable.Defaults). The checkpoint
// directory is not set here: it lives in the job's artifact store, which
// does not exist yet (see runJob).
func (s *Server) validateSpec(js *JobSpec) (set sandtable.Settings, progressEvery time.Duration, err error) {
	switch js.Op {
	case "":
		js.Op = "check"
	case "check", "simulate", "conform", "confirm":
	default:
		return set, 0, fmt.Errorf("unknown op %q (want check, simulate, conform, or confirm)", js.Op)
	}
	if js.System == "" {
		js.System = "gosyncobj"
	}
	if _, err := integrations.Get(js.System); err != nil {
		return set, 0, err
	}
	// A job never gets more workers than the server can run at once: the
	// explorer and the conformance pool size per-worker state from it.
	if js.Workers <= 0 {
		js.Workers = s.opts.DefaultWorkers
	}
	js.Workers = min(js.Workers, runtime.GOMAXPROCS(0))
	if s.opts.MaxJobStates > 0 && (js.MaxStates <= 0 || js.MaxStates > s.opts.MaxJobStates) {
		js.MaxStates = s.opts.MaxJobStates
	}
	set = sandtable.Defaults(js.Op)
	set.Bug, set.Nodes, set.Fixed = js.Bug, js.Nodes, js.Fixed
	set.MaxTimeouts, set.MaxRequests, set.MaxCrashes = js.MaxTimeouts, js.MaxRequests, js.MaxCrashes
	set.MaxDirtyCrashes, set.MaxBuffer = js.MaxDirtyCrashes, js.MaxBuffer
	set.Workers, set.MaxStates = js.Workers, js.MaxStates
	set.Shrink, set.Distinct, set.CheckpointStates = js.Shrink, js.Distinct, js.CheckpointStates
	if js.Walks > 0 {
		set.Walks = js.Walks
	}
	if js.Depth > 0 {
		set.Depth = js.Depth
	}
	if js.Seed != 0 {
		set.Seed = js.Seed
	}
	set.Deadline = s.opts.DefaultDeadline
	if js.Deadline != "" {
		if set.Deadline, err = time.ParseDuration(js.Deadline); err != nil || set.Deadline <= 0 {
			return set, 0, fmt.Errorf("bad deadline %q", js.Deadline)
		}
	}
	if s.opts.MaxDeadline > 0 && set.Deadline > s.opts.MaxDeadline {
		set.Deadline = s.opts.MaxDeadline
	}
	set.MemBudget = s.opts.MemBudget
	if js.MemBudget != "" {
		if set.MemBudget, err = explorer.ParseByteSize(js.MemBudget); err != nil {
			return set, 0, fmt.Errorf("mem_budget: %w", err)
		}
	}
	if js.CheckpointEvery != "" {
		if set.CheckpointEvery, err = time.ParseDuration(js.CheckpointEvery); err != nil {
			return set, 0, fmt.Errorf("bad checkpoint_every %q", js.CheckpointEvery)
		}
	}
	progressEvery = time.Second
	if js.ProgressEvery != "" {
		d, err := time.ParseDuration(js.ProgressEvery)
		if err != nil {
			return set, 0, fmt.Errorf("bad progress_every %q", js.ProgressEvery)
		}
		if d > 0 {
			progressEvery = d
		}
	}
	return set, progressEvery, nil
}

// runJob executes one job end to end: builds the session, attaches the
// tracer (teed into the job's event fan-out), starts the progress publisher,
// places the checkpoint directory in the job's artifact store (seeded from
// resume_from's), hands the op to the run layer, and writes the artifact
// set — whenever the run got far enough to have an outcome, failed or not.
func (s *Server) runJob(j *Job) error {
	sys, err := integrations.Get(j.spec.System)
	if err != nil {
		return err
	}
	st, err := sandtable.NewSession(sys, j.set)
	if err != nil {
		return err
	}

	tf, err := os.Create(filepath.Join(j.dir, TraceJSONL))
	if err != nil {
		return err
	}
	defer tf.Close()
	tracer := obs.NewTracer(tf)
	tracer.Tee(j.fan.Publish)
	defer tracer.Flush()

	stopProgress := s.startProgress(j)
	defer stopProgress()

	set := j.set
	if j.spec.CheckpointEvery != "" || set.CheckpointStates > 0 || j.spec.ResumeFrom != "" {
		set.Checkpoint = filepath.Join(j.dir, CheckpointDir)
	}
	if j.spec.ResumeFrom != "" {
		src, err := s.checkpointOf(j.spec.ResumeFrom)
		if err != nil {
			return err
		}
		if err := copyDir(src, set.Checkpoint); err != nil {
			return fmt.Errorf("resume_from %s: %w", j.spec.ResumeFrom, err)
		}
		set.Resume = true
	}

	var (
		out    *sandtable.Outcome
		runErr error
		sinks  = sandtable.Sinks{Metrics: j.reg, Tracer: tracer}
	)
	switch j.spec.Op {
	case "check":
		out, runErr = st.RunCheck(j.ctx, set, sinks)
	case "simulate":
		out, runErr = st.RunSimulate(j.ctx, set, sinks)
	case "conform":
		out, runErr = st.RunConform(j.ctx, set, sinks)
	case "confirm":
		out, runErr = st.RunConfirm(j.ctx, set, sinks)
	}
	if out == nil {
		return runErr
	}
	j.setOutcome(out)
	if out.Trace != nil {
		if err := sandtable.WriteTrace(filepath.Join(j.dir, CounterexampleJSON), out.Trace); err != nil && runErr == nil {
			runErr = err
		}
	}
	if err := s.writeFinalArtifacts(j, out); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// startProgress publishes a periodic "progress" event (layer "obs", node -1)
// to the job's fan-out, carrying a snapshot of the run's headline counters.
// These events are service-local: they never enter the JSONL trace and carry
// no tracer sequence number.
func (s *Server) startProgress(j *Job) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(j.progressEvery)
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

// writeFinalArtifacts writes result.json, metrics.json, and the final
// report.md for a finished run.
func (s *Server) writeFinalArtifacts(j *Job, out *sandtable.Outcome) error {
	if err := writeJSON(filepath.Join(j.dir, ResultJSON), out.Summary); err != nil {
		return err
	}
	snap := out.Metrics(j.reg)
	if err := writeJSON(filepath.Join(j.dir, MetricsJSON), snap); err != nil {
		return err
	}
	return report.WriteFile(filepath.Join(j.dir, ReportMD), j.reportData(out, snap, ""))
}

// reportData assembles the report input for a job from an outcome and the
// metrics payload built from it; note marks live renders.
func (j *Job) reportData(out *sandtable.Outcome, snap map[string]any, note string) *report.Data {
	return &report.Data{
		Title:   fmt.Sprintf("sandtable serve: %s %s (%s)", j.spec.Op, j.spec.System, j.id),
		Source:  "sandtable serve job " + j.id,
		Metrics: snap,
		Cover:   out.Cover,
		Note:    note,
	}
}

// renderLiveReport streams a report for a still-running job to w, marked as
// partial — the render-to-writer path, no file involved. The outcome is
// empty until the run has returned.
func (j *Job) renderLiveReport(w io.Writer) error {
	out := j.outcome()
	return report.Render(w, j.reportData(out, out.Metrics(j.reg), "Partial report: the job is still running."))
}

// checkpointOf resolves the checkpoint directory of an earlier job and
// verifies it holds a committed checkpoint: the manifest is the test.
func (s *Server) checkpointOf(id string) (string, error) {
	src, ok := s.getJob(id)
	if !ok {
		return "", fmt.Errorf("resume_from: no such job %q", id)
	}
	dir := filepath.Join(src.dir, CheckpointDir)
	if _, err := os.Stat(filepath.Join(dir, explorer.ManifestFile)); err != nil {
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
