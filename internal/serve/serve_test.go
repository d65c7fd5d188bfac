package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/trace"
)

// tinySpec exhausts in ~1k distinct states — fast and deterministic.
func tinySpec() JobSpec {
	zero := 0
	return JobSpec{
		Op: "check", System: "gosyncobj", Fixed: true,
		MaxTimeouts: 2, MaxRequests: 2, MaxCrashes: &zero,
		Workers: 1, Deadline: "30s",
	}
}

// mediumSpec explores ~25k states in a few hundred ms — long enough to
// observe mid-run, short enough for tests.
func mediumSpec() JobSpec {
	one := 1
	return JobSpec{
		Op: "check", System: "gosyncobj", Fixed: true,
		MaxTimeouts: 3, MaxRequests: 2, MaxCrashes: &one,
		Workers: 1, Deadline: "60s",
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func submit(t *testing.T, base string, spec JobSpec) *JobStatus {
	t.Helper()
	st, code := trySubmit(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmit(t *testing.T, base string, spec JobSpec) (*JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return &st, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) *JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return &st
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state within %s", id, timeout)
	return nil
}

// TestJobLifecycle submits a small check job and verifies the terminal
// status, result summary, and artifact set.
func TestJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	st := submit(t, hs.URL, tinySpec())
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	fin := waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.Result["stop_reason"] != "exhausted" {
		t.Errorf("stop_reason = %v, want exhausted", fin.Result["stop_reason"])
	}
	if ds, _ := fin.Result["distinct_states"].(float64); ds < 1000 {
		t.Errorf("distinct_states = %v, want >= 1000", fin.Result["distinct_states"])
	}
	want := []string{MetricsJSON, ReportMD, ResultJSON, TraceJSONL}
	for _, name := range want {
		found := false
		for _, a := range fin.Artifacts {
			if a == name {
				found = true
			}
		}
		if !found {
			t.Errorf("artifact %s missing from %v", name, fin.Artifacts)
		}
	}

	// The metrics artifact must carry the CLI schema stamp and result block.
	var metrics map[string]any
	fetchJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/artifacts/"+MetricsJSON, &metrics)
	if v, _ := metrics["schema"].(float64); int(v) != obs.MetricsSchemaVersion {
		t.Errorf("metrics schema = %v, want %d", metrics["schema"], obs.MetricsSchemaVersion)
	}
	if _, ok := metrics["result"].(map[string]any); !ok {
		t.Errorf("metrics artifact has no result block")
	}

	// The final report is a rendered Markdown document.
	rep := fetchBody(t, hs.URL+"/v1/jobs/"+st.ID+"/artifacts/"+ReportMD)
	if !strings.Contains(rep, "## Run summary") {
		t.Errorf("report.md lacks a Summary section:\n%.400s", rep)
	}
}

func fetchJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return b.String()
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	typ  string
	data string
}

// readSSE parses events from an SSE stream until the stream ends, the "done"
// event arrives, or maxEvents are read.
func readSSE(t *testing.T, base, id string, maxEvents int, stopEarly func(sseEvent) bool) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.typ != "" {
				out = append(out, cur)
				if cur.typ == "done" || len(out) >= maxEvents || (stopEarly != nil && stopEarly(cur)) {
					return out
				}
			}
			cur = sseEvent{}
		}
	}
	return out
}

// TestSSEStream verifies the event stream end to end: a subscriber that
// joins mid-run receives the replayed prefix plus the live tail, a
// subscriber that leaves mid-run does not disturb the job, and a subscriber
// arriving after completion still sees the full replay and the final done
// event.
func TestSSEStream(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := mediumSpec()
	spec.ProgressEvery = "20ms"
	st := submit(t, hs.URL, spec)

	// Leave mid-run: read a handful of events and drop the connection.
	early := readSSE(t, hs.URL, st.ID, 3, nil)
	if len(early) == 0 {
		t.Fatalf("mid-run subscriber saw no events")
	}

	// Join mid-run (or just after) and read to completion.
	full := readSSE(t, hs.URL, st.ID, 100000, nil)
	last := full[len(full)-1]
	if last.typ != "done" {
		t.Fatalf("last SSE event = %q, want done (got %d events)", last.typ, len(full))
	}
	var fin JobStatus
	if err := json.Unmarshal([]byte(last.data), &fin); err != nil {
		t.Fatalf("done event payload: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("done event state = %s (error %q)", fin.State, fin.Error)
	}
	var kinds []string
	for _, e := range full {
		kinds = append(kinds, e.typ)
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "trace") {
		t.Errorf("stream carried no trace events: %s", joined)
	}

	// Trace events on the stream are schema-valid (progress events are
	// service-local and carry no tracer seq, so they are exempt).
	for _, e := range full {
		if e.typ != "trace" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("trace event payload: %v", err)
		}
		if err := obs.ValidateEvent(ev); err != nil {
			t.Fatalf("invalid trace event on stream: %v", err)
		}
	}

	// Late join after completion: replay plus immediate done.
	late := readSSE(t, hs.URL, st.ID, 100000, nil)
	if late[len(late)-1].typ != "done" {
		t.Fatalf("late subscriber did not get done, got %q", late[len(late)-1].typ)
	}
}

// TestQueueFullRejects fills the queue behind a slow job and verifies the
// 429 + Retry-After contract, then cancels everything.
func TestQueueFullRejects(t *testing.T) {
	_, hs := newTestServer(t, Options{QueueDepth: 1})
	slow := mediumSpec()
	slow.Nodes = 3
	slow.MaxStates = 1_000_000
	slow.CheckpointStates = 100_000_000 // checkpointing on, but effectively never fires
	running := submit(t, hs.URL, slow)
	queued := submit(t, hs.URL, tinySpec())
	if _, code := trySubmit(t, hs.URL, tinySpec()); code != http.StatusTooManyRequests {
		t.Fatalf("third submit status = %d, want 429", code)
	}
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
		}
	}
	if st := waitTerminal(t, hs.URL, queued.ID, 10*time.Second); st.State != StateCanceled {
		t.Errorf("queued job state = %s, want canceled", st.State)
	}
	if st := waitTerminal(t, hs.URL, running.ID, 30*time.Second); st.State != StateCanceled {
		t.Errorf("running job state = %s, want canceled", st.State)
	}
}

// TestCancelLeavesResumableCheckpoint cancels a running checkpointed job and
// resumes a successor from its snapshot.
func TestCancelLeavesResumableCheckpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := mediumSpec()
	spec.Nodes = 3
	spec.MaxStates = 1_000_000
	spec.CheckpointStates = 5000
	spec.Deadline = "120s"
	st := submit(t, hs.URL, spec)

	// Wait for the first committed checkpoint, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared")
		}
		cur := getStatus(t, hs.URL, st.ID)
		if cur.State.terminal() {
			t.Fatalf("job finished before it could be canceled: %s", cur.State)
		}
		if cur.Progress["checkpoints"] >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s (error %q), want canceled", fin.State, fin.Error)
	}
	if !slices.Contains(fin.Artifacts, CheckpointDir+"/"+explorer.ManifestFile) {
		t.Fatalf("canceled job left no committed checkpoint: %v", fin.Artifacts)
	}
	canceledStates, _ := fin.Result["distinct_states"].(float64)
	if canceledStates <= 0 {
		t.Fatalf("canceled job reports no explored states: %v", fin.Result)
	}

	// Resume: the successor continues the exploration rather than starting
	// over, so it passes the canceled job's state count and stops at its own
	// budget.
	res := spec
	res.MaxStates = 50_000
	res.CheckpointStates = 0
	res.ResumeFrom = st.ID
	st2 := submit(t, hs.URL, res)
	fin2 := waitTerminal(t, hs.URL, st2.ID, 60*time.Second)
	if fin2.State != StateDone {
		t.Fatalf("resumed job state = %s (error %q)", fin2.State, fin2.Error)
	}
	if fin2.Result["resumed"] != true {
		t.Errorf("resumed job did not report resumed=true: %v", fin2.Result)
	}
	if ds, _ := fin2.Result["distinct_states"].(float64); ds < 50_000 {
		t.Errorf("resumed job explored %v states, want >= 50000", ds)
	}

	// A mismatched resume (different model label) is refused.
	bad := tinySpec()
	bad.ResumeFrom = st.ID
	st3 := submit(t, hs.URL, bad)
	if fin3 := waitTerminal(t, hs.URL, st3.ID, 30*time.Second); fin3.State != StateFailed {
		t.Errorf("mismatched resume state = %s, want failed", fin3.State)
	}
}

// TestResumeFromBaseOnlyCheckpoint: a job whose only checkpoint is the first
// block of its chain log — the whole fingerprint set, no delta block after
// it — must be resumable. The budget stops the job right after its first
// checkpoint, so the outcome is deterministic.
func TestResumeFromBaseOnlyCheckpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := mediumSpec()
	spec.Nodes = 3
	spec.MaxStates = 5000
	spec.CheckpointStates = 5000
	st := submit(t, hs.URL, spec)
	fin := waitTerminal(t, hs.URL, st.ID, 60*time.Second)
	if fin.State != StateDone || fin.Result["checkpoints"] != float64(1) {
		t.Fatalf("first job: state %s, checkpoints %v, want done with exactly 1", fin.State, fin.Result["checkpoints"])
	}
	var logs, others int
	for _, a := range fin.Artifacts {
		switch {
		case strings.HasPrefix(a, CheckpointDir+"/chain-") && strings.HasSuffix(a, ".log"):
			logs++
		case strings.HasPrefix(a, CheckpointDir+"/") && a != CheckpointDir+"/"+explorer.ManifestFile:
			others++
		}
	}
	if !slices.Contains(fin.Artifacts, CheckpointDir+"/"+explorer.ManifestFile) || logs != 1 || others != 0 {
		t.Fatalf("want a manifest and one chain log, got %v", fin.Artifacts)
	}

	res := spec
	res.MaxStates = 20_000
	res.CheckpointStates = 0
	res.ResumeFrom = st.ID
	fin2 := waitTerminal(t, hs.URL, submit(t, hs.URL, res).ID, 60*time.Second)
	if fin2.State != StateDone || fin2.Result["resumed"] != true {
		t.Fatalf("resumed job: state %s (error %q), resumed %v", fin2.State, fin2.Error, fin2.Result["resumed"])
	}
	if ds, _ := fin2.Result["distinct_states"].(float64); ds < 20_000 {
		t.Errorf("resumed job explored %v states, want >= 20000", ds)
	}
}

// TestSubmitValidation exercises spec rejection paths.
func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	cases := []JobSpec{
		{Op: "frobnicate"},
		{System: "no-such-system"},
		{Deadline: "yesterday"},
		{MemBudget: "12parsecs"},
		{ResumeFrom: "job-999999"},
		{CheckpointEvery: "sometimes"},
	}
	for _, spec := range cases {
		if _, code := trySubmit(t, hs.URL, spec); code != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", spec, code)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"op":"check","bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	huge := `{"op":"check","system":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err = http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: status %d, want 413", resp.StatusCode)
	}
}

// TestBudgetClamping verifies the server-side caps land in the job spec.
func TestBudgetClamping(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxJobStates: 1500, MaxDeadline: time.Minute})
	spec := tinySpec()
	spec.MaxStates = 50_000_000
	spec.Deadline = "24h"
	spec.Workers = 1 << 50
	st := submit(t, hs.URL, spec)
	fin := waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	if fin.Spec.MaxStates != 1500 || fin.Spec.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("MaxStates = %d, Workers = %d; want clamped to 1500 and GOMAXPROCS", fin.Spec.MaxStates, fin.Spec.Workers)
	}
	// The tiny space exhausts below the clamp, so the run still completes.
	if fin.State != StateDone {
		t.Errorf("state = %s", fin.State)
	}
}

// TestSymmetryPastPermTableMaxFailsTheJob: a check over 12 nodes (check
// jobs always reduce by symmetry) fails with the explorer's refusal instead of
// building a 12!-entry permutation table, and the server takes the next job.
func TestSymmetryPastPermTableMaxFailsTheJob(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := tinySpec()
	spec.Nodes = 12
	fin := waitTerminal(t, hs.URL, submit(t, hs.URL, spec).ID, 30*time.Second)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "at most 8") {
		t.Fatalf("12-node job: state %s, error %q; want failed naming the 8-node limit", fin.State, fin.Error)
	}
	if fin := waitTerminal(t, hs.URL, submit(t, hs.URL, tinySpec()).ID, 30*time.Second); fin.State != StateDone {
		t.Errorf("the next job: state %s (%s)", fin.State, fin.Error)
	}
}

// TestLiveReportAndList covers the live (partial) report render and the job
// listing.
func TestLiveReportAndList(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := mediumSpec()
	spec.Nodes = 3
	spec.MaxStates = 1_000_000
	spec.Deadline = "120s"
	st := submit(t, hs.URL, spec)
	// Wait until it is actually running so the live render has counters.
	for getStatus(t, hs.URL, st.ID).State == StateQueued {
		time.Sleep(2 * time.Millisecond)
	}
	rep := fetchBody(t, hs.URL+"/v1/jobs/"+st.ID+"/artifacts/"+ReportMD)
	if !strings.Contains(rep, "Partial report") {
		t.Errorf("live report is not marked partial:\n%.300s", rep)
	}

	var list struct {
		Jobs []*JobStatus `json:"jobs"`
	}
	fetchJSON(t, hs.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}

	// Path traversal outside the job directory is rejected.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/artifacts/../../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("traversal fetch succeeded")
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, hs.URL, st.ID, 30*time.Second)
}

// TestServeWithDebugRepublish hammers the service mux and obs.ServeDebug
// concurrently while debug servers restart (republishing the expvar
// registry holder) and a job runs — the regression surface of the PR 6
// expvar holder under concurrent use.
func TestServeWithDebugRepublish(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, Options{Registry: reg})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Republish loop: start/stop debug servers against the same registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			addr, stopDbg, err := obs.ServeDebug("127.0.0.1:0", reg)
			if err != nil {
				t.Errorf("ServeDebug: %v", err)
				return
			}
			if i == 0 {
				resp, err := http.Get("http://" + addr + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
			}
			stopDbg()
		}
	}()

	// Reader loops: service metrics and health under the same registry.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz", "/v1/jobs"} {
					resp, err := http.Get(hs.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}()
	}

	st := submit(t, hs.URL, tinySpec())
	waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	close(stop)
	wg.Wait()
}

// TestServerClose verifies shutdown cancels queued and running jobs.
func TestServerClose(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	slow := mediumSpec()
	slow.Nodes = 3
	slow.MaxStates = 1_000_000
	slow.Deadline = "120s"
	running := submit(t, hs.URL, slow)
	queued := submit(t, hs.URL, tinySpec())
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("Close did not return")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if j, ok := s.getJob(id); !ok || !j.getState().terminal() {
			st := JobState("missing")
			if ok {
				st = j.getState()
			}
			t.Errorf("after Close, job %s state = %s", id, st)
		}
	}
	// Submissions after Close are refused.
	if _, code := trySubmit(t, hs.URL, tinySpec()); code != http.StatusServiceUnavailable {
		t.Errorf("post-Close submit status = %d, want 503", code)
	}
}

// TestSimulateJob runs the simulate op through the service.
func TestSimulateJob(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Op: "simulate", System: "gosyncobj", Fixed: true, Walks: 20, Depth: 15, Seed: 7}
	st := submit(t, hs.URL, spec)
	fin := waitTerminal(t, hs.URL, st.ID, 60*time.Second)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if w, _ := fin.Result["walks"].(float64); int(w) != 20 {
		t.Errorf("walks = %v, want 20", fin.Result["walks"])
	}
}

// TestSimulateJobPastPermTableMax: a simulate job fingerprints every state it
// walks to, and over 12 nodes a fingerprint must not build the 12!-entry
// permutation table (simulation does not reduce by symmetry).
func TestSimulateJobPastPermTableMax(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Op: "simulate", Nodes: 12, Walks: 1, Depth: 3}
	if fin := waitTerminal(t, hs.URL, submit(t, hs.URL, spec).ID, 60*time.Second); fin.State != StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
}

// TestConformJobShrinks: a conform job with "shrink": true minimizes the
// discrepancy trace before writing it, as `sandtable conform -shrink` does.
// CRaft#9 (a modeling-stage defect: the implementation reads the wrong term)
// diverges from its specification within the first walk.
func TestConformJobShrinks(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	st := submit(t, hs.URL, JobSpec{Op: "conform", System: "craft", Bug: "CRaft#9", Walks: 5, Shrink: true})
	fin := waitTerminal(t, hs.URL, st.ID, 60*time.Second)
	if fin.State != StateDone || fin.Result["passed"] != false {
		t.Fatalf("state = %s (error %q), passed = %v; want a finished job that found a discrepancy", fin.State, fin.Error, fin.Result["passed"])
	}
	var result map[string]any
	fetchJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/artifacts/"+ResultJSON, &result)
	orig, _ := result["shrink_original_len"].(float64)
	minimized, _ := result["shrink_minimized_len"].(float64)
	if minimized == 0 || minimized >= orig {
		t.Fatalf("result.json: shrink_original_len=%v shrink_minimized_len=%v, want a strict reduction", result["shrink_original_len"], result["shrink_minimized_len"])
	}
	tr, err := trace.Decode(strings.NewReader(fetchBody(t, hs.URL+"/v1/jobs/"+st.ID+"/artifacts/"+CounterexampleJSON)))
	if err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if got := len(tr.Steps); got != int(minimized) {
		t.Errorf("trace.json has %d steps, want the minimized %d (original %d)", got, int(minimized), int(orig))
	}
}
