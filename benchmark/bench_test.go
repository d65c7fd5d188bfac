package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickRun drives the whole harness at the quick sizes: the binary build,
// the child-process plumbing, the cluster's port selection, the serve client,
// the traced runs with their span files, every correctness check, the result
// file and -compare. It proves the plumbing; the numbers mean nothing.
func TestQuickRun(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	contract, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		// Without loopback sockets neither the TCP peers nor the HTTP
		// service can run; the two process-only workloads still can.
		t.Logf("loopback sockets unavailable (%v): skipping explore_cluster and workflow", err)
		contract.Workloads = contract.Workloads[:2]
	} else {
		ln.Close()
	}
	tmp := t.TempDir()
	h, err := newHarness(root, filepath.Join(tmp, "build"), filepath.Join(tmp, "out"), contract, quickSizes, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	var log bytes.Buffer
	h.log = &log

	result := filepath.Join(tmp, "out", "result.json")
	failed, err := h.runAll(1, result)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if failed {
		t.Errorf("the run reports failed operations\n%s", log.String())
	}

	rf, err := readResultFile(result)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Env.NProc < 1 || rf.Env.Go == "" || rf.Env.Sizes.Name != "quick" {
		t.Errorf("environment not recorded: %+v", rf.Env)
	}
	for _, w := range contract.Workloads {
		wr := rf.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s missing from the result file", w.Name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %+v", w.Name, wr.Failed, wr.Attempted, wr.Checks)
		}
		for _, s := range contract.EndToEnd {
			if m := wr.EndToEnd[s.Name]; !(m.Median > 0) || m.N != 1 {
				t.Errorf("%s: end-to-end metric %s = %+v, want one positive value", w.Name, s.Name, m)
			}
		}
		if len(wr.PerLayer) != len(contract.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", w.Name, len(wr.PerLayer), len(contract.PerLayer))
		}
		for _, c := range wr.Children {
			if c.GOMAXPROCS < 1 || c.Workers == "" {
				t.Errorf("%s: child %q ran without a recorded GOMAXPROCS/workers", w.Name, c.Args)
			}
		}
		buf, err := os.ReadFile(wr.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var spans spanLog
		if err := json.Unmarshal(buf, &spans); err != nil || len(spans.Spans) == 0 {
			t.Errorf("%s: span file %s: %v, %d spans", w.Name, wr.TraceFile, err, len(spans.Spans))
		}
		for _, s := range spans.Spans {
			if s.Name == "" || s.Run == "" || s.EndNs < s.StartNs || s.Parent >= s.ID {
				t.Errorf("%s: malformed span %+v", w.Name, s)
				break
			}
		}
	}
	// The layers a workload leaves out must read zero on it, and the ones it
	// exists for must not.
	layer := func(workload, metric string) float64 { return rf.Workloads[workload].PerLayer[metric].Median }
	for _, m := range []string{"spec.codec_encode_ns_per_state", "fpset.disk_probes_per_insert", "transport.wire_bytes_per_state", "explorer.deltas"} {
		if v := layer(wlInRAM, m); v != 0 {
			t.Errorf("%s on %s = %v, want 0", m, wlInRAM, v)
		}
	}
	for _, m := range []string{"spec.append_next_ns_per_succ", "fp.orbit_ns_per_canon", "fpset.insert_ns_per_op", "explorer.self_ns_per_state", "cmd.cold_start_ms"} {
		if v := layer(wlInRAM, m); !(v > 0) {
			t.Errorf("%s on %s = %v, want > 0", m, wlInRAM, v)
		}
	}
	for _, m := range []string{"spec.codec_encode_ns_per_state", "fpset.disk_probes_per_insert", "fpset.spill_insert_ns_per_op", "explorer.deltas", "explorer.disk_bytes_per_state"} {
		if v := layer(wlSpill, m); !(v > 0) {
			t.Errorf("%s on %s = %v, want > 0", m, wlSpill, v)
		}
	}
	if rf.Workloads[wlCluster] != nil {
		for _, m := range []string{"transport.wire_bytes_per_state", "transport.encode_ns_per_cand", "transport.exchange_us_per_round", "spec.codec_decode_ns_per_state"} {
			if v := layer(wlCluster, m); !(v > 0) {
				t.Errorf("%s on %s = %v, want > 0", m, wlCluster, v)
			}
		}
		for _, m := range []string{"engine.apply_ns_per_cmd", "replay.run_ns_per_step", "conformance.walk_ns_per_event", "shrink.ns_per_attempt", "serve.submit_to_running_ms"} {
			if v := layer(wlWorkflow, m); !(v > 0) {
				t.Errorf("%s on %s = %v, want > 0", m, wlWorkflow, v)
			}
		}
	}

	// A set of runs compared with itself has nothing to report.
	var table bytes.Buffer
	regressed, err := compareFiles(&table, result, result)
	if err != nil || regressed {
		t.Errorf("comparing a result file with itself: regressed=%v err=%v\n%s", regressed, err, table.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := func(better string, median, q1, q3 float64) MetricResult {
		return MetricResult{Better: better, Bound: 0.10, Summary: Summary{N: 10, Median: median, Q1: q1, Q3: q3}}
	}
	cases := []struct {
		name         string
		base, change MetricResult
		want         string
	}{
		{"within bound", m("lower", 10, 9.9, 10.1), m("lower", 10.5, 10.4, 10.6), verdictOK},
		{"slower", m("lower", 10, 9.9, 10.1), m("lower", 11.5, 11.4, 11.6), verdictRegressed},
		{"faster", m("lower", 10, 9.9, 10.1), m("lower", 5, 4.9, 5.1), verdictOK},
		{"less throughput", m("higher", 100, 99, 101), m("higher", 80, 79, 81), verdictRegressed},
		{"more throughput", m("higher", 100, 99, 101), m("higher", 130, 129, 131), verdictOK},
		{"too noisy to tell", m("lower", 10, 9, 11), m("lower", 12, 11.9, 12.1), verdictUnresolved},
	}
	for _, tc := range cases {
		if _, got := judge(tc.base, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// the harness must cut at the same points.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75 / 5.5 / 8.25", s)
	}
	if got := summarize([]float64{3, 1, 2}); got.Q1 != 1 || got.Median != 2 || got.Q3 != 3 {
		t.Errorf("summarize(1,2,3) = %+v", got)
	}
	if got := summarize([]float64{7}); got.Median != 7 || got.Spread() != 0 {
		t.Errorf("summarize(7) = %+v", got)
	}
	if got := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}).Spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestContractIsWellFormed applies the limits a malformed BENCHMARK.json is
// refused for, and ties the file to the harness: every workload the file
// names is one the harness runs, and the sizes in the "why" lines are the
// sizes in sizes.go.
func TestContractIsWellFormed(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloadOrder) {
		t.Errorf("%d workloads, the harness runs %d", len(c.Workloads), len(workloadOrder))
	}
	for i, w := range c.Workloads {
		use(w.Name)
		if i < len(workloadOrder) && w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q, the harness expects %q", i, w.Name, workloadOrder[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !strings.Contains(c.Workloads[0].Why, "-max-states 200000") || fullSizes.MaxStates != 200000 {
		t.Errorf("the size in BENCHMARK.json and fullSizes.MaxStates = %d disagree", fullSizes.MaxStates)
	}
	setup := false
	for _, m := range c.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range c.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if n := len(c.PerLayer); n < 1 || n > 128 || len(c.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", n, len(c.EndToEnd))
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
}
