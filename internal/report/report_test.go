package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sandtable-go/sandtable/internal/obs"
)

func sampleCover() *obs.Cover {
	c := obs.NewCover("bfs", []string{"ClientRequest", "HandleVote", "Timeout"})
	c.Observe("ClientRequest", 1, true)
	c.Observe("ClientRequest", 2, true)
	c.Observe("ClientRequest", 2, false)
	c.Observe("HandleVote", 2, false)
	c.Levels = append(c.Levels,
		obs.LevelStats{Depth: 0, Frontier: 1, Fresh: 1},
		obs.LevelStats{Depth: 1, Frontier: 1, Fresh: 2, Transitions: 3, Dedup: 1, FpsetProbes: 4, Checkpoint: true},
	)
	c.SymmetryHits = 5
	return c
}

func sampleMetrics() map[string]any {
	return map[string]any{
		"schema":                   float64(obs.MetricsSchemaVersion),
		"distinct_states":          float64(3),
		"explorer.canonical.orbit": float64(42),
		"result": map[string]any{
			"distinct_states":      float64(3),
			"transitions":          float64(3),
			"dedup_ratio":          0.25,
			"duration_ns":          float64(1.5e9),
			"stop_reason":          "violation",
			"violations":           float64(1),
			"first_violation":      "invariant Agreement violated at depth 2: boom",
			"shrink_original_len":  float64(12),
			"shrink_minimized_len": float64(4),
			"shrink_attempts":      float64(9),
		},
	}
}

// TestRenderSections: every section renders with the expected content, and
// never-fired actions are flagged loudly.
func TestRenderSections(t *testing.T) {
	d := &Data{
		Cover:   sampleCover(),
		Metrics: sampleMetrics(),
		Events: []obs.Event{
			{V: 1, Seq: 1, Layer: "spec", Kind: "level", Node: -1,
				Detail: map[string]string{"depth": "1", "distinct": "3", "queue": "2", "transitions": "3", "dedup_hits": "1"}},
			{V: 1, Seq: 2, Layer: "obs", Kind: "stall", Node: -1,
				Detail: map[string]string{"reports": "3", "distinct": "3", "depth": "1"}},
		},
	}
	var b strings.Builder
	if err := Render(&b, d); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# SandTable run report",
		"## Run summary",
		"| stop_reason | violation |",
		"| dedup_ratio | 25.0% |",
		"| duration_ns | 1.500s |",
		"| canonicalizations (incremental orbit) | 42 |",
		"## Action coverage",
		"| ClientRequest | 3 | 2 | 66.7% | 1 | 2 |",
		"| HandleVote | 1 | 0 | 0.0% | 2 | — | zero yield |",
		"| Timeout | 0 | 0 | — | — | — | **NEVER FIRED** |",
		"1 declared action(s) never fired: Timeout",
		"Symmetry reduction collapsed 5 successor(s)",
		"## Depth profile",
		"⏺",
		"## Throughput timeline",
		"| 1 | 1 | 3 | 2 | 3 | 1 |",
		"**Stall warning** after 3 report(s)",
		"## Counterexample",
		"First violation: invariant Agreement violated at depth 2: boom",
		"Shrink: 12 → 4 events (9 candidate(s) evaluated)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}

	// Rendering is deterministic.
	var b2 strings.Builder
	if err := Render(&b2, d); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Fatal("non-deterministic report")
	}
}

// TestRenderMemorySection: the "Memory & spill" section appears exactly when
// the run carried a budget or spilled, with humanised sizes, and flags
// checkpoint write failures.
func TestRenderMemorySection(t *testing.T) {
	d := &Data{Metrics: map[string]any{
		"mem_budget_bytes":                  float64(8 << 30),
		"heap_inuse_bytes":                  float64(6442450944),
		"fpset.spilled_entries":             float64(120000),
		"fpset.spilled_shards":              float64(3),
		"fpset.spill_runs":                  float64(2),
		"fpset.spill_bytes":                 float64(2400000),
		"fpset.disk_probes":                 float64(55555),
		"explorer.frontier_spill_bytes":     float64(1 << 20),
		"explorer.frontier_spilled_entries": float64(4096),
		"checkpoint.deltas":                 float64(7),
		"checkpoint.delta_bytes":            float64(900 << 10),
		"checkpoint.compactions":            float64(1),
		"checkpoint.errors":                 float64(2),
	}}
	var b strings.Builder
	if err := Render(&b, d); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"## Memory & spill",
		"| memory budget | 8.00 GiB |",
		"| heap in use (last sample) | 6.00 GiB |",
		"| fingerprints spilled to disk | 120000 |",
		"| shard spill passes | 3 |",
		"| fingerprint spill size | 2.29 MiB |",
		"| disk probes | 55555 |",
		"| frontier spilled | 1.00 MiB |",
		"| frontier states spilled | 4096 |",
		"| checkpoint delta blocks | 7 |",
		"| checkpoint delta size | 900.0 KiB |",
		"| checkpoint compactions | 1 |",
		"| **checkpoint write failures** | 2 |",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("memory section missing %q:\n%s", want, text)
		}
	}

	// An in-RAM run (all spill metrics zero or absent) renders no section.
	var b2 strings.Builder
	if err := Render(&b2, &Data{Metrics: map[string]any{
		"mem_budget_bytes":      float64(0),
		"fpset.spilled_entries": float64(0),
	}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), "## Memory & spill") {
		t.Fatalf("in-RAM run rendered a memory section:\n%s", b2.String())
	}
}

// TestRenderPartialData: a report from nothing but a coverage profile (or
// nothing at all) must not emit empty sections or panic.
func TestRenderPartialData(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, &Data{}); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"## Run summary", "## Action coverage", "## Depth profile", "## Throughput timeline", "## Counterexample", "## Memory & spill"} {
		if strings.Contains(b.String(), section) {
			t.Fatalf("empty data rendered section %s", section)
		}
	}

	b.Reset()
	if err := Render(&b, &Data{Cover: sampleCover()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "## Action coverage") || strings.Contains(b.String(), "## Run summary") {
		t.Fatalf("cover-only report wrong:\n%s", b.String())
	}
}

// TestFromFiles: artifacts written to disk round-trip into a full report,
// including the embedded coverage profile.
func TestFromFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := sampleMetrics()
	metrics["cover"] = sampleCover()
	buf, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(mpath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(dir, "trace.jsonl")
	tf, err := os.Create(tpath)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(tf)
	tr.Emit(obs.Event{Layer: "spec", Kind: "level", Node: -1, Detail: map[string]string{"depth": "1", "distinct": "3"}})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	d, err := FromFiles(mpath, tpath)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cover == nil || d.Cover.Mode != "bfs" {
		t.Fatalf("cover not decoded: %+v", d.Cover)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "level" {
		t.Fatalf("events = %+v", d.Events)
	}
	if !strings.Contains(d.Source, "metrics.json") || !strings.Contains(d.Source, "trace.jsonl") {
		t.Fatalf("source = %q", d.Source)
	}

	out := filepath.Join(dir, "report.md")
	if err := WriteFile(out, d); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "**NEVER FIRED**") {
		t.Fatalf("written report missing never-fired flag:\n%s", text)
	}

	// Metrics-only and trace-only loads both work.
	if d, err := FromFiles(mpath, ""); err != nil || d.Events != nil {
		t.Fatalf("metrics-only: %v %+v", err, d)
	}
	if d, err := FromFiles("", tpath); err != nil || d.Cover != nil {
		t.Fatalf("trace-only: %v %+v", err, d)
	}
	if _, err := FromFiles(filepath.Join(dir, "missing.json"), ""); err == nil {
		t.Fatal("missing metrics file not reported")
	}
}
