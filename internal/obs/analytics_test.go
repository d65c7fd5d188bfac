package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReporterEWMAAndETA drives the analytics with a virtual clock and
// hand-computable deltas: the smoothed throughput and the dedup-curve ETA
// must come out at exact fixed points.
func TestReporterEWMAAndETA(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	var got []Progress
	r := NewReporterClock(func(p Progress) { got = append(got, p) }, time.Second, now)

	// Window 1: 1000 fresh states, queue grows 0 -> 500 over 10s.
	// expanded = 1000 - 500 = 500, m = 2 (space still growing): no ETA.
	clock = clock.Add(10 * time.Second)
	r.Emit(Progress{DistinctStates: 1000, QueueLen: 500, Transitions: 2000, DedupHits: 500, Depth: 3})
	if got[0].StatesPerSec != 100 {
		t.Fatalf("window rate = %v, want 100", got[0].StatesPerSec)
	}
	if got[0].StatesPerSecEWMA != 100 {
		t.Fatalf("first ewma = %v, want seeded to 100", got[0].StatesPerSecEWMA)
	}
	if got[0].ETA != 0 {
		t.Fatalf("growing space must have no ETA, got %v", got[0].ETA)
	}

	// Window 2: 500 fresh, queue shrinks 500 -> 250 over 10s.
	// expanded = 500 + 250 = 750, m = 2/3, remaining = 250/(1/3) = 750
	// expansions at 75/s: ETA exactly 10s. EWMA = 0.3*50 + 0.7*100 = 85.
	clock = clock.Add(10 * time.Second)
	r.Emit(Progress{DistinctStates: 1500, QueueLen: 250, Transitions: 5000, DedupHits: 3000, Depth: 5})
	if got[1].StatesPerSec != 50 {
		t.Fatalf("window rate = %v, want 50", got[1].StatesPerSec)
	}
	if got[1].StatesPerSecEWMA != 85 {
		t.Fatalf("ewma = %v, want 85", got[1].StatesPerSecEWMA)
	}
	if got[1].ETA != 10*time.Second {
		t.Fatalf("ETA = %v, want 10s", got[1].ETA)
	}

	// The rendered line carries the analytics deterministically.
	line := got[1].String()
	for _, want := range []string{"~85 states/s avg", "ETA 10s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}

	// Final reports drop ETA (the run is over) but keep the smoothed rate.
	clock = clock.Add(10 * time.Second)
	r.Emit(Progress{DistinctStates: 2250, QueueLen: 0, Final: true})
	if got[2].ETA != 0 {
		t.Fatalf("final report carries ETA %v", got[2].ETA)
	}
	if strings.Contains(got[2].String(), "ETA") || strings.Contains(got[2].String(), "avg") {
		t.Fatalf("final line renders analytics: %q", got[2].String())
	}
}

// TestReporterStallOncePerPlateau checks the stall edge: after stallAfter
// (3) consecutive zero-progress reports the warning fires exactly once, stays
// silent for the rest of the plateau, resets on progress, and fires once
// again on the next plateau. Each plateau also emits exactly one trace
// event.
func TestReporterStallOncePerPlateau(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	var got []Progress
	var traceBuf bytes.Buffer
	tracer := NewTracer(&traceBuf)
	r := NewReporterClock(func(p Progress) { got = append(got, p) }, time.Second, now)
	r.Tracer = tracer

	emit := func(distinct int) {
		clock = clock.Add(time.Second)
		if !r.Maybe(Progress{DistinctStates: distinct, QueueLen: 10}) {
			t.Fatalf("cadence not due at distinct=%d", distinct)
		}
	}

	emit(100) // progress
	emit(100) // zero run 1
	emit(100) // zero run 2
	emit(100) // zero run 3 -> stalled, warning
	emit(100) // still stalled, no second warning
	emit(150) // plateau ends
	emit(150) // zero run 1
	emit(150) // zero run 2
	emit(150) // zero run 3 -> second plateau, warning again

	wantStalled := []bool{false, false, false, true, true, false, false, false, true}
	wantWarn := []bool{false, false, false, true, false, false, false, false, true}
	if len(got) != len(wantStalled) {
		t.Fatalf("reports = %d, want %d", len(got), len(wantStalled))
	}
	for i := range got {
		if got[i].Stalled != wantStalled[i] || got[i].StallWarning != wantWarn[i] {
			t.Fatalf("report %d: stalled=%v warn=%v, want %v/%v",
				i, got[i].Stalled, got[i].StallWarning, wantStalled[i], wantWarn[i])
		}
	}
	if !strings.Contains(got[3].String(), "[stalled]") {
		t.Fatalf("stalled line missing marker: %q", got[3].String())
	}

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("stall trace events = %d, want 2 (one per plateau)", len(evs))
	}
	for _, e := range evs {
		if e.Layer != "obs" || e.Kind != "stall" {
			t.Fatalf("unexpected stall event %+v", e)
		}
		if err := ValidateEvent(e); err != nil {
			t.Fatalf("stall event fails schema: %v", err)
		}
	}
}

// TestPrintProgressStallWarning: the stderr printer emits a warning line on
// the stall edge and only there.
func TestPrintProgressStallWarning(t *testing.T) {
	var buf bytes.Buffer
	fn := PrintProgress(&buf)
	fn(Progress{DistinctStates: 10})
	if strings.Contains(buf.String(), "warning:") {
		t.Fatal("warning printed without stall edge")
	}
	fn(Progress{DistinctStates: 10, Stalled: true, StallWarning: true})
	if !strings.Contains(buf.String(), "warning: no new distinct states") {
		t.Fatalf("missing stall warning:\n%s", buf.String())
	}
}

// TestHistogramQuantiles pins the interpolation arithmetic on hand-built
// bucket contents.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// 100 observations in (0,10].
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.50); got != 5 {
		t.Fatalf("p50 = %v, want 5 (midpoint of first bucket)", got)
	}
	if got := h.Quantile(0.99); got != 9.9 {
		t.Fatalf("p99 = %v, want 9.9", got)
	}
	// Add 100 observations in (10,100]: p90 rank 180 falls 80% into the
	// second bucket: 10 + 0.8*90 = 82.
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	if got := h.Quantile(0.90); got != 82 {
		t.Fatalf("p90 = %v, want 82", got)
	}
	// Ranks landing past every finite bound report the highest bound.
	h2 := NewHistogram([]int64{10})
	h2.Observe(5000)
	if got := h2.Quantile(0.5); got != 10 {
		t.Fatalf("+Inf-bucket quantile = %v, want highest finite bound 10", got)
	}
	// Empty and nil histograms report 0.
	if NewHistogram([]int64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	var hn *Histogram
	if hn.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
}

// TestSnapshotQuantileKeys: Snapshot must expose p50/p90/p99 for populated
// histograms and omit them for empty ones.
func TestSnapshotQuantileKeys(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("depth", []int64{10, 100}).Observe(5)
	reg.Histogram("empty", []int64{10})
	snap := reg.Snapshot()
	for _, k := range []string{"depth.p50", "depth.p90", "depth.p99"} {
		if _, ok := snap[k].(float64); !ok {
			t.Fatalf("snapshot missing quantile %s: %v", k, snap)
		}
	}
	if _, ok := snap["empty.p50"]; ok {
		t.Fatal("empty histogram published a quantile")
	}
}

// TestQuantilesConcurrent observes and snapshots quantiles from parallel
// goroutines (run under -race): the estimate reads bucket atomics only.
func TestQuantilesConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := reg.Histogram("lat", []int64{10, 100, 1000})
			for i := 0; i < 2000; i++ {
				h.Observe(int64(i % 1500))
				if i%128 == 0 {
					_ = h.Quantile(0.99)
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	h := reg.Histogram("lat", nil)
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("implausible quantiles p50=%v p99=%v", p50, p99)
	}
}

// TestValidateEventSchema exercises the shared schema validator.
func TestValidateEventSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(Event{Layer: "spec", Kind: "level", Node: -1})
	tr.Emit(Event{Layer: "engine", Kind: "step", Node: 0})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.V != TraceSchemaVersion {
			t.Fatalf("emitted event has v=%d, want %d", e.V, TraceSchemaVersion)
		}
		if err := ValidateEvent(e); err != nil {
			t.Fatalf("emitted event fails schema: %v", err)
		}
	}
	bad := []Event{
		{V: 99, Seq: 1, Layer: "spec", Kind: "level"},
		{V: TraceSchemaVersion, Seq: 0, Layer: "spec", Kind: "level"},
		{V: TraceSchemaVersion, Seq: 1, Layer: "martian", Kind: "level"},
		{V: TraceSchemaVersion, Seq: 1, Layer: "spec", Kind: ""},
		{V: TraceSchemaVersion, Seq: 1, Layer: "spec", Kind: "level", Node: -2},
	}
	for i, e := range bad {
		if ValidateEvent(e) == nil {
			t.Fatalf("bad event %d accepted: %+v", i, e)
		}
	}

	good := map[string]any{"schema": float64(MetricsSchemaVersion), "distinct_states": float64(5), "result": map[string]any{}, "cover": map[string]any{}}
	if err := ValidateMetrics(good); err != nil {
		t.Fatalf("good metrics rejected: %v", err)
	}
	for i, snap := range []map[string]any{
		{"distinct_states": float64(5)},
		{"schema": float64(99)},
		{"schema": float64(MetricsSchemaVersion), "oops": "text"},
	} {
		if ValidateMetrics(snap) == nil {
			t.Fatalf("bad metrics %d accepted", i)
		}
	}
}
