// Package serve turns SandTable into a checking-as-a-service daemon: an
// HTTP+JSON control plane over the same pipeline the CLI drives. Clients
// submit jobs (check, simulate, conform, confirm) to a bounded FIFO queue,
// a fixed number of run slots execute them under per-job budgets (max
// states, wall clock, memory), progress streams live over Server-Sent
// Events, and every run leaves a durable artifact set — event trace,
// metrics snapshot, Markdown report, replayable counterexample, and
// exploration checkpoints a later job can resume from.
//
// The API surface:
//
//	GET    /healthz                        liveness + queue occupancy
//	GET    /metrics                        Prometheus text format (service + jobs)
//	POST   /v1/jobs                        submit a JobSpec; 202 + status, 429 when the queue is full
//	GET    /v1/jobs                        list all jobs, oldest first
//	GET    /v1/jobs/{id}                   job status (live progress while running)
//	DELETE /v1/jobs/{id}                   cancel a queued or running job
//	GET    /v1/jobs/{id}/events            SSE stream: replay of past events, live tail, final "done"
//	GET    /v1/jobs/{id}/artifacts/        artifact listing (JSON)
//	GET    /v1/jobs/{id}/artifacts/{path}  artifact download; report.md renders live for running jobs
//
// Results are CLI-equivalent by construction: this package is a front end of
// the run layer in internal/sandtable, exactly as cmd/sandtable is. It turns
// a JobSpec into sandtable.Settings and owns the queue, the SSE fan-out, the
// resume_from copy and the fixed artifact names; session building, the run,
// shrinking, replay and the metrics payload are the run layer's, so a job's
// metrics.json and trace.json match a CLI run with the same settings (the
// serve-smoke CI target asserts this with clustercmp).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/sandtable"
)

// Options configure a Server.
type Options struct {
	// Dir is the artifact root; each job gets Dir/<job-id>/. Required.
	Dir string
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429 (default 16).
	QueueDepth int
	// Slots is the number of jobs run concurrently (default 1 — model
	// checking saturates the machine on its own via Workers).
	Slots int
	// DefaultWorkers is the per-job worker count when a spec leaves Workers
	// zero (default 1, keeping single-job results deterministic).
	DefaultWorkers int
	// MaxJobStates caps every job's distinct-state budget; zero means
	// uncapped. A spec asking for more (or for no limit) is clamped.
	MaxJobStates int
	// DefaultDeadline is the per-job wall-clock budget when the spec leaves
	// Deadline empty (default 2m).
	DefaultDeadline time.Duration
	// MaxDeadline caps every job's wall-clock budget; zero means uncapped.
	MaxDeadline time.Duration
	// MemBudget is the per-job memory budget in bytes when the spec leaves
	// MemBudget empty; zero means none.
	MemBudget int64
	// Registry receives the service's own metrics (serve.* counters and
	// gauges); nil allocates a private one. Per-job run metrics live in
	// per-job registries, not here, so job artifacts stay CLI-equivalent.
	Registry *obs.Registry
}

// Server is the checking service: a job registry, a bounded FIFO queue, and
// a pool of run slots.
type Server struct {
	opts Options
	reg  *obs.Registry

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup
}

// New builds a Server, creates its artifact root, and starts its run slots.
// Close must be called to stop them.
func New(opts Options) (*Server, error) {
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.DefaultWorkers <= 0 {
		opts.DefaultWorkers = 1
	}
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 2 * time.Minute
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s := &Server{
		opts:  opts,
		reg:   opts.Registry,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, opts.QueueDepth),
		stop:  make(chan struct{}),
	}
	s.reg.Gauge("serve.slots").Set(int64(opts.Slots))
	for i := 0; i < opts.Slots; i++ {
		s.wg.Add(1)
		go s.runSlot()
	}
	return s, nil
}

// Close stops the service: no new jobs run, queued jobs are marked canceled,
// the running ones are canceled via their contexts, and Close blocks until
// every run slot exits.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return
	default:
	}
	close(s.stop)
	for _, j := range s.jobs {
		j.tryCancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Drain jobs that were queued but never picked up.
	for {
		select {
		case j := <-s.queue:
			j.fan.Close()
		default:
			return
		}
	}
}

// runSlot is one worker: it pulls jobs off the FIFO queue and runs them.
func (s *Server) runSlot() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.reg.Gauge("serve.queue_len").Set(int64(len(s.queue)))
			s.execute(j)
		}
	}
}

// execute runs one job through its lifecycle and closes its event stream.
func (s *Server) execute(j *Job) {
	defer j.fan.Close()
	if j.ctx.Err() != nil { // canceled while queued
		return
	}
	j.setState(StateRunning)
	s.reg.Gauge("serve.jobs_running").Add(1)
	defer s.reg.Gauge("serve.jobs_running").Add(-1)

	err := s.runJob(j)
	switch {
	case err == nil && j.ctx.Err() != nil, err == nil && j.outcome().Summary["stop_reason"] == "canceled":
		j.finish(StateCanceled, "")
		s.reg.Counter("serve.jobs_canceled").Add(1)
	case err != nil && j.ctx.Err() != nil:
		j.finish(StateCanceled, err.Error())
		s.reg.Counter("serve.jobs_canceled").Add(1)
	case err != nil:
		j.finish(StateFailed, err.Error())
		s.reg.Counter("serve.jobs_failed").Add(1)
	default:
		j.finish(StateDone, "")
		s.reg.Counter("serve.jobs_completed").Add(1)
	}
	// Announce the final state on the stream before it closes, so SSE
	// consumers that joined mid-run learn the outcome in-band.
	j.fan.Publish(obs.Event{
		V: obs.TraceSchemaVersion, Layer: "obs", Kind: "job-state", Node: -1,
		Detail: map[string]string{"job": j.id, "state": string(j.getState())},
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", obs.PrometheusHandler(func() *obs.Registry { return s.reg }))
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{path...}", s.handleArtifact)
	return mux
}

// getJob looks a job up by id.
func (s *Server) getJob(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSONResponse writes v with the given status code.
func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleHealth reports liveness plus queue and slot occupancy.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	running, _ := snap["serve.jobs_running"].(int64)
	writeJSONResponse(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"queue_len": len(s.queue),
		"queue_cap": cap(s.queue),
		"running":   running,
		"slots":     s.opts.Slots,
		"go":        runtime.Version(),
	})
}

// maxSpecBytes bounds a submitted JobSpec body; a real spec is a few hundred
// bytes.
const maxSpecBytes = 1 << 20

// decodeSpec reads a JobSpec as handleSubmit does: one JSON object, no
// unknown fields.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// handleSubmit validates a JobSpec, registers the job, and enqueues it.
// A full queue rejects with 429 and a Retry-After hint rather than blocking
// the client.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad job spec: %v", err)
		return
	}
	set, progressEvery, err := s.validateSpec(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.ResumeFrom != "" {
		if _, err := s.checkpointOf(spec.ResumeFrom); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	default:
	}
	s.seq++
	id := jobID(s.seq)
	dir := filepath.Join(s.opts.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "artifact dir: %v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:            id,
		spec:          spec,
		dir:           dir,
		set:           set,
		progressEvery: progressEvery,
		out:           &sandtable.Outcome{},
		reg:           obs.NewRegistry(),
		fan:           obs.NewFanout(),
		ctx:           ctx,
		cancel:        cancel,
		state:         StateQueued,
		created:       time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.seq--
		s.mu.Unlock()
		os.Remove(dir)
		s.reg.Counter("serve.jobs_rejected").Add(1)
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests, "job queue full (%d queued)", cap(s.queue))
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.reg.Counter("serve.jobs_submitted").Add(1)
	s.reg.Gauge("serve.queue_len").Set(int64(len(s.queue)))
	writeJSONResponse(w, http.StatusAccepted, j.status())
}

// handleList returns every job's status, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSONResponse(w, http.StatusOK, j.status())
}

// handleCancel cancels a queued or running job; canceling a finished job is
// a 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.tryCancel() {
		httpError(w, http.StatusConflict, "job already %s", j.getState())
		return
	}
	writeJSONResponse(w, http.StatusOK, j.status())
}

// handleEvents streams the job's observability events as Server-Sent Events:
// first a replay of everything published so far, then the live tail, and a
// final "done" event carrying the job's terminal status. Event types are
// "trace" (tracer events, with real sequence numbers), "progress" (periodic
// counter snapshots), "job-state", and "done".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, events, cancel := j.fan.Subscribe()
	defer cancel()
	for _, e := range replay {
		if err := writeSSE(w, e); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-events:
			if !ok {
				// Stream over: the job reached a terminal state.
				buf, _ := json.Marshal(j.status())
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", buf)
				fl.Flush()
				return
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE frames one event for the stream.
func writeSSE(w http.ResponseWriter, e obs.Event) error {
	typ := "trace"
	switch e.Kind {
	case "progress", "job-state":
		typ = e.Kind
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, buf)
	return err
}

// handleArtifact serves one artifact file; an empty path lists the job's
// artifacts as JSON. report.md for a still-running job is rendered live
// (marked partial) instead of read from disk.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.PathValue("path") == "" {
		writeJSONResponse(w, http.StatusOK, map[string]any{"artifacts": listArtifacts(j.dir)})
		return
	}
	rel := path.Clean(r.PathValue("path"))
	if rel == "." || rel == ".." || strings.HasPrefix(rel, "../") || path.IsAbs(rel) {
		httpError(w, http.StatusBadRequest, "bad artifact path")
		return
	}
	if rel == ReportMD && !j.getState().terminal() {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		j.renderLiveReport(w)
		return
	}
	full := filepath.Join(j.dir, filepath.FromSlash(rel))
	fi, err := os.Stat(full)
	if err != nil || fi.IsDir() {
		httpError(w, http.StatusNotFound, "no such artifact")
		return
	}
	http.ServeFile(w, r, full)
}
