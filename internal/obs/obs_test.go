package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from parallel goroutines —
// registration races, counter adds, gauge sets, histogram observations —
// and checks the totals. Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Get-or-create on every iteration: the registration path
				// itself must be race-free.
				reg.Counter("transitions").Inc()
				reg.Counter(fmt.Sprintf("per_g.%d", g%4)).Inc()
				reg.Gauge("queue_len").Set(int64(i))
				reg.Histogram("depth", []int64{10, 100, 1000}).Observe(int64(i % 2000))
				if i%64 == 0 {
					_ = reg.Snapshot() // concurrent readers
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("transitions").Value(); got != goroutines*perG {
		t.Fatalf("transitions = %d, want %d", got, goroutines*perG)
	}
	var perG4 int64
	for i := 0; i < 4; i++ {
		perG4 += reg.Counter(fmt.Sprintf("per_g.%d", i)).Value()
	}
	if perG4 != goroutines*perG {
		t.Fatalf("sharded counters sum = %d, want %d", perG4, goroutines*perG)
	}
	h := reg.Histogram("depth", nil)
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	snap := reg.Snapshot()
	if snap["depth.le_inf"].(int64) != goroutines*perG {
		t.Fatalf("cumulative +Inf bucket = %v", snap["depth.le_inf"])
	}
	if snap["depth.le_10"].(int64) >= snap["depth.le_100"].(int64) {
		t.Fatalf("buckets not cumulative: %v >= %v", snap["depth.le_10"], snap["depth.le_100"])
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Gauge("y").Set(2)
	reg.Histogram("z", []int64{1}).Observe(3)
	reg.StartPhase("p")()
	if len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *Tracer
	tr.Emit(Event{Layer: "engine", Kind: "step"})
	if tr.Flush() != nil || tr.Err() != nil || tr.Events() != 0 {
		t.Fatal("nil tracer not a no-op")
	}
	var rep *Reporter
	if rep.Due() {
		t.Fatal("nil reporter claims due")
	}
	rep.Emit(Progress{})
}

// TestReporterCadence drives the reporter with a virtual clock: the time
// trigger and the window-relative states/sec computation are deterministic.
func TestReporterCadence(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	var got []Progress
	r := NewReporterClock(func(p Progress) { got = append(got, p) }, 5*time.Second, now)

	if r.Due() {
		t.Fatal("due before interval elapsed")
	}
	clock = clock.Add(3 * time.Second)
	if r.Maybe(Progress{DistinctStates: 100}) {
		t.Fatal("emitted before interval elapsed")
	}
	clock = clock.Add(2 * time.Second)
	if !r.Maybe(Progress{DistinctStates: 1000, Depth: 3}) {
		t.Fatal("not emitted at interval")
	}
	if len(got) != 1 {
		t.Fatalf("emits = %d, want 1", len(got))
	}
	// 1000 states over a 5s window.
	if got[0].StatesPerSec != 200 {
		t.Fatalf("states/s = %v, want 200", got[0].StatesPerSec)
	}
	if got[0].Elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", got[0].Elapsed)
	}
	// Cadence resets after an emit.
	if r.Due() {
		t.Fatal("due immediately after emit")
	}

	// Final report is unconditional via Emit.
	r.Emit(Progress{DistinctStates: 1001, Final: true})
	if len(got) != 2 || !got[1].Final {
		t.Fatalf("final emit missing: %+v", got)
	}
}

// TestReporterDefaultCadence: a reporter given a callback but no interval
// reports every defaultInterval, whichever run layer built it.
func TestReporterDefaultCadence(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	r := NewReporterClock(func(Progress) {}, 0, now)
	clock = clock.Add(defaultInterval - time.Millisecond)
	if r.Due() {
		t.Fatal("due before the default interval")
	}
	clock = clock.Add(time.Millisecond)
	if !r.Due() {
		t.Fatal("not due at the default interval")
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{Depth: 4, DistinctStates: 1000, QueueLen: 50, Transitions: 4000, DedupHits: 3000, StatesPerSec: 123, Elapsed: 2 * time.Second}
	s := p.String()
	for _, want := range []string{"progress(4)", "1000 distinct states", "queue 50", "dedup 75.0%", "123 states/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("progress line %q missing %q", s, want)
		}
	}
	if p.DedupRatio() != 0.75 {
		t.Fatalf("dedup ratio = %v", p.DedupRatio())
	}
}

// TestTracerRoundTrip emits events from concurrent goroutines, re-reads the
// JSONL stream, and compares: every event survives with a unique sequence
// number and intact fields.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{
					Layer:  "vnet",
					Kind:   "send",
					Node:   g,
					Peer:   (g + 1) % goroutines,
					Index:  i,
					Detail: map[string]string{"payload": fmt.Sprintf("m%d", i)},
				})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != goroutines*perG {
		t.Fatalf("events = %d, want %d", tr.Events(), goroutines*perG)
	}

	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != goroutines*perG {
		t.Fatalf("read %d events, want %d", len(evs), goroutines*perG)
	}
	seen := make(map[int64]bool)
	perNode := make(map[int]int)
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Layer != "vnet" || e.Kind != "send" {
			t.Fatalf("corrupted event: %+v", e)
		}
		if e.Detail["payload"] != fmt.Sprintf("m%d", e.Index) {
			t.Fatalf("detail mismatch: %+v", e)
		}
		perNode[e.Node]++
	}
	for g := 0; g < goroutines; g++ {
		if perNode[g] != perG {
			t.Fatalf("node %d has %d events, want %d", g, perNode[g], perG)
		}
	}

	// Blank lines are tolerated; garbage is not.
	if _, err := ReadEvents(strings.NewReader("\n" + `{"seq":1,"layer":"x","kind":"y","node":0}` + "\n\n")); err != nil {
		t.Fatalf("blank lines rejected: %v", err)
	}
	if _, err := ReadEvents(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPhaseTimerAndJSON(t *testing.T) {
	reg := NewRegistry()
	stop := reg.StartPhase("explore")
	time.Sleep(2 * time.Millisecond)
	stop()
	if v := reg.Counter("phase.explore_ns").Value(); v <= 0 {
		t.Fatalf("phase duration = %d, want > 0", v)
	}
	reg.Counter("distinct_states").Add(42)
	buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	s := string(buf)
	if !strings.Contains(s, `"distinct_states": 42`) || !strings.Contains(s, "phase.explore_ns") {
		t.Fatalf("JSON snapshot missing keys:\n%s", s)
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("distinct_states").Add(7)
	addr, stop, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
