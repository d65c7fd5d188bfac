package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/sandtable"
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle: a submitted job waits in the FIFO queue as StateQueued,
// a run slot moves it to StateRunning, and it ends in exactly one of
// StateDone (the operation completed, result.json holds its summary),
// StateFailed (the operation errored; the status carries the error), or
// StateCanceled (DELETE /v1/jobs/{id} before or during the run).
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the JSON body of POST /v1/jobs — the service's mirror of the
// CLI's flags, so a job and a `sandtable <op>` invocation with the same
// settings produce equivalent results and artifacts. Zero values defer to
// the same defaults the CLI uses (and, for budgets, to the server-side caps
// configured in Options).
type JobSpec struct {
	// Op selects the pipeline stage: "check" (BFS model checking, the
	// default), "simulate" (seeded random walks), "conform" (spec/impl
	// conformance), or "confirm" (check + implementation-level replay).
	Op string `json:"op"`
	// System is the integrated target system (default "gosyncobj").
	System string `json:"system"`
	// Bug restricts checking to one catalogued defect (e.g. "GoSyncObj#4");
	// empty means the system's verification defect set.
	Bug string `json:"bug,omitempty"`
	// Nodes overrides the cluster size (0 = system default).
	Nodes int `json:"nodes,omitempty"`
	// Fixed selects the fully fixed build (fix validation).
	Fixed bool `json:"fixed,omitempty"`

	// MaxTimeouts, MaxRequests, MaxDirtyCrashes, and MaxBuffer override the
	// spec budget when positive, exactly like the CLI flags of the same
	// names.
	MaxTimeouts     int `json:"max_timeouts,omitempty"`
	MaxRequests     int `json:"max_requests,omitempty"`
	MaxDirtyCrashes int `json:"max_dirty_crashes,omitempty"`
	MaxBuffer       int `json:"max_buffer,omitempty"`
	// MaxCrashes overrides the crash budget when present (a pointer because
	// zero is a meaningful override, matching the CLI's -max-crashes -1
	// sentinel).
	MaxCrashes *int `json:"max_crashes,omitempty"`

	// Workers is the BFS/replay worker count (0 or less = the server's
	// default), clamped to the server's GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MaxStates stops a check after this many distinct states; the server's
	// per-job cap (Options.MaxJobStates) clamps it.
	MaxStates int `json:"max_states,omitempty"`
	// Deadline is the per-job wall-clock budget as a Go duration string
	// (e.g. "90s"); empty means the server default, and the server's
	// MaxDeadline clamps it.
	Deadline string `json:"deadline,omitempty"`
	// MemBudget is the per-job memory budget (e.g. "512MiB",
	// explorer.ParseByteSize grammar); empty means the server default.
	MemBudget string `json:"mem_budget,omitempty"`
	// Shrink minimizes the counterexample with ddmin before it is written.
	Shrink bool `json:"shrink,omitempty"`

	// Walks, Depth, Seed, and Distinct configure simulate/conform jobs as
	// the CLI flags of the same names do.
	Walks    int   `json:"walks,omitempty"`
	Depth    int   `json:"depth,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	Distinct bool  `json:"distinct,omitempty"`

	// CheckpointEvery (a Go duration) and CheckpointStates enable periodic
	// exploration snapshots in the job's artifact store; either one turns
	// checkpointing on. A canceled job keeps its last complete-level
	// checkpoint, so a successor job can resume it.
	CheckpointEvery  string `json:"checkpoint_every,omitempty"`
	CheckpointStates int    `json:"checkpoint_states,omitempty"`
	// ResumeFrom names an earlier job whose checkpoint this job continues
	// from. The checkpoint is copied into this job's artifact store, and the
	// explorer's compatibility checks (model label, symmetry, init digest)
	// refuse a mismatched resume.
	ResumeFrom string `json:"resume_from,omitempty"`

	// ProgressEvery (a Go duration) sets the cadence of SSE progress events
	// (default 1s).
	ProgressEvery string `json:"progress_every,omitempty"`
}

// JobStatus is the JSON rendering of a job returned by the lifecycle
// endpoints.
type JobStatus struct {
	// ID is the job's identifier, assigned at submission.
	ID string `json:"id"`
	// State is the lifecycle state; see JobState.
	State JobState `json:"state"`
	// Spec echoes the submitted job spec.
	Spec JobSpec `json:"spec"`
	// Created, Started, and Finished are lifecycle timestamps (RFC 3339;
	// zero-valued ones are omitted).
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Error describes why a failed job failed.
	Error string `json:"error,omitempty"`
	// Result is the operation's summary (the result.json artifact) once the
	// job is done.
	Result map[string]any `json:"result,omitempty"`
	// Progress is a live extract of the job's metrics registry while it
	// runs: distinct_states, transitions, depth, queue_len, checkpoints.
	Progress map[string]int64 `json:"progress,omitempty"`
	// Artifacts lists the files available under /v1/jobs/{id}/artifacts/.
	Artifacts []string `json:"artifacts,omitempty"`
	// EventsDropped counts SSE events lost to slow subscribers or replay-
	// buffer eviction; zero means every subscriber saw the full stream.
	EventsDropped int64 `json:"events_dropped,omitempty"`
}

// Job is one queued or running unit of work and its observability state.
type Job struct {
	id   string
	spec JobSpec
	dir  string
	// set and progressEvery are spec resolved by validateSpec at submission.
	set           sandtable.Settings
	progressEvery time.Duration

	reg    *obs.Registry
	fan    *obs.Fanout
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	out      *sandtable.Outcome
}

// setOutcome records what the run produced, for the metrics artifact and
// report.
func (j *Job) setOutcome(out *sandtable.Outcome) {
	j.mu.Lock()
	j.out = out
	j.mu.Unlock()
}

// outcome returns the run's outcome; empty until the run has returned.
func (j *Job) outcome() *sandtable.Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out
}

// setState transitions the job, stamping lifecycle timestamps.
func (j *Job) setState(st JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st
	now := time.Now()
	switch st {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCanceled:
		j.finished = now
	}
}

// getState returns the current lifecycle state.
func (j *Job) getState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// finish records the job's outcome and final state.
func (j *Job) finish(st JobState, errMsg string) {
	j.mu.Lock()
	j.errMsg = errMsg
	j.mu.Unlock()
	j.setState(st)
}

// tryCancel flips a non-terminal job to canceled and fires its context. It
// reports whether the job was still cancelable; canceling a queued job takes
// effect immediately (the run slot skips it), canceling a running one stops
// the explorer at its next block boundary.
func (j *Job) tryCancel() bool {
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	if st.terminal() {
		return false
	}
	j.cancel()
	if st == StateQueued {
		j.setState(StateCanceled)
	}
	return true
}

// progressKeys are the registry gauges surfaced in JobStatus.Progress.
var progressKeys = []string{"distinct_states", "transitions", "dedup_hits", "depth", "queue_len", "checkpoints"}

// status renders the job for the API.
func (j *Job) status() *JobStatus {
	j.mu.Lock()
	st := &JobStatus{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Created: j.created,
		Error:   j.errMsg,
		Result:  j.out.Summary,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	state := j.state
	j.mu.Unlock()

	if state == StateRunning {
		snap := j.reg.Snapshot()
		st.Progress = make(map[string]int64, len(progressKeys))
		for _, k := range progressKeys {
			if v, ok := snap[k].(int64); ok {
				st.Progress[k] = v
			}
		}
	}
	st.Artifacts = listArtifacts(j.dir)
	st.EventsDropped = j.fan.Dropped()
	return st
}

// listArtifacts walks the job directory and returns the relative paths of
// its regular files, sorted (checkpoint files appear under "checkpoint/").
func listArtifacts(dir string) []string {
	var out []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return nil
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(out)
	return out
}

// jobID formats the n'th job's identifier.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }
