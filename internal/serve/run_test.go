package serve

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/sandtable"
)

// TestValidateSpecResolvesSettings: validateSpec is the one place a JobSpec
// becomes run-layer settings — strings parsed, server caps applied, zero
// fields deferring to the defaults the CLI's flags carry.
func TestValidateSpecResolvesSettings(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxDeadline: time.Minute, MaxJobStates: 1500, MemBudget: 1 << 30})
	js := JobSpec{Op: "conform", Deadline: "24h", CheckpointEvery: "3s", ProgressEvery: "20ms", MemBudget: "1MiB", Shrink: true}
	set, every, err := s.validateSpec(&js)
	if err != nil {
		t.Fatal(err)
	}
	def := sandtable.Defaults("conform")
	if set.Deadline != time.Minute || set.CheckpointEvery != 3*time.Second || every != 20*time.Millisecond || set.MemBudget != 1<<20 {
		t.Errorf("typed values: deadline %s checkpoint_every %s progress_every %s mem_budget %d", set.Deadline, set.CheckpointEvery, every, set.MemBudget)
	}
	if set.Walks != def.Walks || set.Depth != def.Depth || set.Seed != def.Seed || set.Workers != 1 || set.MaxStates != 1500 || !set.Shrink {
		t.Errorf("defaults and caps: %+v", set)
	}
	if js.System != "gosyncobj" || js.MaxStates != 1500 {
		t.Errorf("the echoed spec must carry the normalised values: %+v", js)
	}

	set, every, err = s.validateSpec(&JobSpec{Walks: 7, Depth: 9, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if set.Walks != 7 || set.Depth != 9 || set.Seed != 11 || every != time.Second || set.MemBudget != 1<<30 || set.Deadline != time.Minute {
		t.Errorf("explicit values and server defaults: %+v (progress every %s)", set, every)
	}
}

// TestConformJobHonoursMaxDeadline: at the parent commit a conform job
// dropped both its own deadline and the server's -max-job-deadline clamp,
// so one job with a huge walk count pinned a run slot until it finished.
func TestConformJobHonoursMaxDeadline(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxDeadline: 50 * time.Millisecond})
	const walks = 1_000_000
	st := submit(t, hs.URL, JobSpec{Op: "conform", System: "gosyncobj", Fixed: true, Walks: walks, Deadline: "1h"})
	fin := waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	if fin.State != StateDone || fin.Result["passed"] != true {
		t.Fatalf("state = %s (error %q), result %v; want a done job that passed the walks it got to", fin.State, fin.Error, fin.Result)
	}
	if w, _ := fin.Result["walks"].(float64); w <= 0 || w >= walks {
		t.Errorf("walks = %v, want a partial round bounded by the 50ms cap", fin.Result["walks"])
	}
}

// TestCancelConformJob: canceling a running conform job stops it at the next
// walk boundary, not after the whole round.
func TestCancelConformJob(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	st := submit(t, hs.URL, JobSpec{Op: "conform", System: "gosyncobj", Fixed: true, Walks: 1_000_000, Deadline: "1h"})
	for getStatus(t, hs.URL, st.ID).State == StateQueued {
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, hs.URL, st.ID, 30*time.Second)
	if fin.State != StateCanceled || fin.Result["stop_reason"] != "canceled" {
		t.Errorf("state = %s, stop_reason = %v; want canceled", fin.State, fin.Result["stop_reason"])
	}
}

// FuzzJobSpec feeds arbitrary bytes to the submit path's decode and
// validateSpec, the only code a request body reaches before a job is queued.
// Neither may panic, and every spec accepted must lie within the server's
// bounds: its state and deadline caps, at most GOMAXPROCS workers, and a
// mem_budget that parses.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"op":"check","system":"craft","nodes":3,"workers":1125899906842624,"max_states":-1,"deadline":"24h","mem_budget":"1GiB"}`))
	f.Add([]byte(`{"op":"conform","fixed":true,"walks":5,"workers":-3,"seed":7,"checkpoint_every":"1s","progress_every":"-1s"}`))
	f.Add([]byte(`{"op":"simulate","deadline":"0s","mem_budget":"9007199254740992KiB"}`))
	f.Add([]byte(`{"op":"confirm","bug":"GoSyncObj#2","shrink":true,"max_crashes":0} {"op":"check"}`))
	s := &Server{opts: Options{DefaultWorkers: 1, MaxJobStates: 1500, DefaultDeadline: time.Minute, MaxDeadline: time.Hour}}
	f.Fuzz(func(t *testing.T, body []byte) {
		js, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		set, _, err := s.validateSpec(&js)
		if err != nil {
			return
		}
		if js.Workers < 1 || js.Workers > runtime.GOMAXPROCS(0) || set.Workers != js.Workers {
			t.Errorf("accepted workers %d (settings %d), want 1..%d", js.Workers, set.Workers, runtime.GOMAXPROCS(0))
		}
		if set.MaxStates < 1 || set.MaxStates > 1500 || set.Deadline <= 0 || set.Deadline > time.Hour {
			t.Errorf("accepted max_states %d, deadline %s past the server's caps", set.MaxStates, set.Deadline)
		}
		if n, err := explorer.ParseByteSize(js.MemBudget); js.MemBudget != "" && (err != nil || n != set.MemBudget) {
			t.Errorf("accepted mem_budget %q as %d bytes (%v)", js.MemBudget, set.MemBudget, err)
		}
	})
}
