// Package report renders post-run Markdown reports from SandTable's
// observability artifacts: the -metrics-out JSON snapshot (run counters,
// result summary, coverage profile) and the optional -trace-out JSONL event
// stream. The report answers the questions a finished run raises — which
// actions fired and which never did, where the state space grew and where it
// saturated, how throughput evolved, and what the counterexample (if any)
// looked like — without re-running anything.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/sandtable-go/sandtable/internal/obs"
)

// Data is everything a report can draw on. Every field is optional: the
// renderer emits only the sections its inputs support.
type Data struct {
	// Title heads the report (defaults to "SandTable run report").
	Title string
	// Source describes where the data came from (artifact paths or
	// "in-memory run"), printed under the title.
	Source string
	// Note, when set, is printed emphasised under the source line — used by
	// the serve API to mark a report rendered from a live registry snapshot
	// of a still-running job as partial.
	Note string
	// Metrics is the decoded -metrics-out snapshot: counters, histogram
	// quantiles, and the "result" summary map.
	Metrics map[string]any
	// Cover is the coverage profile (decoded from the snapshot's "cover"
	// key, or handed over directly after an in-process run).
	Cover *obs.Cover
	// Events is the decoded -trace-out stream, used for the timeline and
	// stall annotations.
	Events []obs.Event
}

// FromFiles loads report data from artifact files. metricsPath and
// tracePath may each be empty; present files must parse.
func FromFiles(metricsPath, tracePath string) (*Data, error) {
	d := &Data{}
	var sources []string
	if metricsPath != "" {
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &d.Metrics); err != nil {
			return nil, fmt.Errorf("report: %s: %w", metricsPath, err)
		}
		if cv, ok := d.Metrics["cover"]; ok {
			// Round-trip the nested map through JSON into the typed profile.
			buf, err := json.Marshal(cv)
			if err == nil {
				var cover obs.Cover
				if err := json.Unmarshal(buf, &cover); err == nil {
					d.Cover = &cover
				}
			}
		}
		sources = append(sources, metricsPath)
	}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		evs, err := obs.ReadEvents(f)
		if err != nil {
			return nil, err
		}
		d.Events = evs
		sources = append(sources, tracePath)
	}
	d.Source = strings.Join(sources, ", ")
	return d, nil
}

// Render writes the Markdown report. Output is deterministic for a given
// Data value (sorted keys, stable section order).
func Render(w io.Writer, d *Data) error {
	b := &strings.Builder{}
	title := d.Title
	if title == "" {
		title = "SandTable run report"
	}
	fmt.Fprintf(b, "# %s\n", title)
	if d.Source != "" {
		fmt.Fprintf(b, "\nSource: `%s`\n", d.Source)
	}
	if d.Note != "" {
		fmt.Fprintf(b, "\n*%s*\n", d.Note)
	}
	renderSummary(b, d)
	renderMemory(b, d)
	renderCluster(b, d)
	renderCoverage(b, d.Cover)
	renderDepthProfile(b, d.Cover)
	renderTimeline(b, d.Events)
	renderCounterexample(b, d)
	_, err := io.WriteString(w, b.String())
	return err
}

// summaryOrder fixes the display order of the best-known result keys; any
// others follow alphabetically.
var summaryOrder = []string{
	"distinct_states", "transitions", "dedup_hits", "dedup_ratio",
	"states_per_sec", "max_depth", "max_queue_len", "duration_ns",
	"stop_reason", "exhausted", "violations", "resumed", "checkpoints",
	"walks", "events_checked", "passed", "confirmed", "steps",
}

func renderSummary(b *strings.Builder, d *Data) {
	result, _ := d.Metrics["result"].(map[string]any)
	if len(result) == 0 {
		return
	}
	fmt.Fprintf(b, "\n## Run summary\n\n| metric | value |\n|---|---|\n")
	done := map[string]bool{}
	emit := func(k string) {
		v, ok := result[k]
		if !ok || done[k] {
			return
		}
		done[k] = true
		fmt.Fprintf(b, "| %s | %s |\n", k, formatValue(k, v))
	}
	for _, k := range summaryOrder {
		emit(k)
	}
	var rest []string
	for k := range result {
		if !done[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		emit(k)
	}
	// Symmetry reduction's work: the counter lives beside the run's gauges,
	// not in the result map.
	if orbit, ok := metricNum(d.Metrics, "explorer.canonical.orbit"); ok && orbit > 0 {
		fmt.Fprintf(b, "| canonicalizations (incremental orbit) | %.0f |\n", orbit)
	}
}

// formatValue renders a summary value: durations humanised, ratios as
// percentages, floats trimmed, everything else verbatim. Numbers may arrive
// as float64 (decoded JSON) or as Go integer types (in-memory snapshots).
func formatValue(key string, v any) string {
	var f float64
	isNum := true
	switch n := v.(type) {
	case float64:
		f = n
	case int:
		f = float64(n)
	case int64:
		f = float64(n)
	default:
		isNum = false
	}
	switch {
	case isNum && strings.HasSuffix(key, "_ns"):
		return fmt.Sprintf("%.3fs", f/1e9)
	case isNum && strings.HasSuffix(key, "_ratio"):
		return fmt.Sprintf("%.1f%%", 100*f)
	case isNum && f == float64(int64(f)):
		return fmt.Sprintf("%d", int64(f))
	case isNum:
		return fmt.Sprintf("%.1f", f)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// metricNum extracts a numeric top-level metric from the snapshot. Numbers
// arrive as float64 when the snapshot was decoded from JSON and as Go
// integer types when handed over in-process.
func metricNum(m map[string]any, key string) (float64, bool) {
	switch n := m[key].(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}

// formatBytes humanises a byte count for the memory section.
func formatBytes(f float64) string {
	switch {
	case f >= 1<<30:
		return fmt.Sprintf("%.2f GiB", f/(1<<30))
	case f >= 1<<20:
		return fmt.Sprintf("%.2f MiB", f/(1<<20))
	case f >= 1<<10:
		return fmt.Sprintf("%.1f KiB", f/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", f)
	}
}

// renderMemory emits the "Memory & spill" section when the run carried a
// memory budget or produced out-of-core activity: how much of the
// fingerprint set and frontier went to disk, what disk lookups cost, and how
// the incremental checkpoint chain grew. Silent for fully in-RAM runs.
func renderMemory(b *strings.Builder, d *Data) {
	budget, _ := metricNum(d.Metrics, "mem_budget_bytes")
	spilledEntries, _ := metricNum(d.Metrics, "fpset.spilled_entries")
	frontierBytes, _ := metricNum(d.Metrics, "explorer.frontier_spill_bytes")
	deltas, _ := metricNum(d.Metrics, "checkpoint.deltas")
	ckErrors, _ := metricNum(d.Metrics, "checkpoint.errors")
	if budget == 0 && spilledEntries == 0 && frontierBytes == 0 && deltas == 0 && ckErrors == 0 {
		return
	}
	fmt.Fprintf(b, "\n## Memory & spill\n\n| metric | value |\n|---|---|\n")
	row := func(label, val string) { fmt.Fprintf(b, "| %s | %s |\n", label, val) }
	if budget > 0 {
		row("memory budget", formatBytes(budget))
	}
	if heap, ok := metricNum(d.Metrics, "heap_inuse_bytes"); ok && heap > 0 {
		row("heap in use (last sample)", formatBytes(heap))
	}
	if spilledEntries > 0 {
		row("fingerprints spilled to disk", fmt.Sprintf("%.0f", spilledEntries))
		if shards, ok := metricNum(d.Metrics, "fpset.spilled_shards"); ok && shards > 0 {
			row("shard spill passes", fmt.Sprintf("%.0f", shards))
		}
		if runs, ok := metricNum(d.Metrics, "fpset.spill_runs"); ok {
			row("open spill runs", fmt.Sprintf("%.0f", runs))
		}
		if bytes, ok := metricNum(d.Metrics, "fpset.spill_bytes"); ok && bytes > 0 {
			row("fingerprint spill size", formatBytes(bytes))
		}
		if probes, ok := metricNum(d.Metrics, "fpset.disk_probes"); ok {
			row("disk probes", fmt.Sprintf("%.0f", probes))
		}
	}
	if frontierBytes > 0 {
		row("frontier spilled", formatBytes(frontierBytes))
		if n, ok := metricNum(d.Metrics, "explorer.frontier_spilled_entries"); ok {
			row("frontier states spilled", fmt.Sprintf("%.0f", n))
		}
	}
	if deltas > 0 {
		row("checkpoint delta blocks", fmt.Sprintf("%.0f", deltas))
		if n, ok := metricNum(d.Metrics, "checkpoint.delta_bytes"); ok {
			row("checkpoint delta size", formatBytes(n))
		}
		if n, ok := metricNum(d.Metrics, "checkpoint.compactions"); ok && n > 0 {
			row("checkpoint compactions", fmt.Sprintf("%.0f", n))
		}
	}
	if ckErrors > 0 {
		row("**checkpoint write failures**", fmt.Sprintf("%.0f", ckErrors))
	}
}

// renderCluster emits the "Cluster" section when the run was one peer of
// a distributed exploration (the transport.peers gauge is set): which
// shard this snapshot describes, how much frontier crossed the wire, how
// long this peer waited at level barriers, and what remote edge probes
// (trace reconstruction) cost. Silent for single-process runs.
func renderCluster(b *strings.Builder, d *Data) {
	peers, ok := metricNum(d.Metrics, "transport.peers")
	if !ok || peers <= 0 {
		return
	}
	fmt.Fprintf(b, "\n## Cluster\n\n| metric | value |\n|---|---|\n")
	row := func(label, val string) { fmt.Fprintf(b, "| %s | %s |\n", label, val) }
	if id, ok := metricNum(d.Metrics, "transport.peer_id"); ok {
		role := ""
		if id == 0 {
			role = " (coordinator)"
		}
		row("peer", fmt.Sprintf("%.0f of %.0f%s", id, peers, role))
	}
	if n, ok := metricNum(d.Metrics, "transport.barriers"); ok {
		row("level barriers", fmt.Sprintf("%.0f", n))
	}
	sent, _ := metricNum(d.Metrics, "transport.blocks_sent")
	recv, _ := metricNum(d.Metrics, "transport.blocks_recv")
	row("frontier blocks sent / received", fmt.Sprintf("%.0f / %.0f", sent, recv))
	bsent, _ := metricNum(d.Metrics, "transport.bytes_sent")
	brecv, _ := metricNum(d.Metrics, "transport.bytes_recv")
	row("wire bytes sent / received", fmt.Sprintf("%s / %s", formatBytes(bsent), formatBytes(brecv)))
	if ns, ok := metricNum(d.Metrics, "transport.stall_ns"); ok && ns > 0 {
		row("time waiting at barriers", fmt.Sprintf("%.3fs", ns/1e9))
	}
	if n, ok := metricNum(d.Metrics, "transport.probes"); ok && n > 0 {
		row("remote edge probes", fmt.Sprintf("%.0f", n))
		if p50, ok := metricNum(d.Metrics, "transport.probe_latency_us.p50"); ok {
			p99, _ := metricNum(d.Metrics, "transport.probe_latency_us.p99")
			row("probe latency p50 / p99", fmt.Sprintf("%.0fµs / %.0fµs", p50, p99))
		}
	}
}

func renderCoverage(b *strings.Builder, cover *obs.Cover) {
	if cover == nil {
		return
	}
	fmt.Fprintf(b, "\n## Action coverage\n\n")
	if cover.Mode != "" {
		fmt.Fprintf(b, "Collected in %s mode.", cover.Mode)
		if cover.ResumedAtDepth > 0 {
			fmt.Fprintf(b, " Resumed at depth %d — this profile covers the continuation only.", cover.ResumedAtDepth)
		}
		fmt.Fprintf(b, "\n\n")
	}
	fmt.Fprintf(b, "| action | fired | fresh | yield | first depth | last fresh depth | |\n|---|---|---|---|---|---|---|\n")
	never := map[string]bool{}
	for _, n := range cover.NeverFired() {
		never[n] = true
	}
	for _, name := range cover.ActionNames() {
		a := cover.Actions[name]
		if a == nil || a.Fired == 0 {
			fmt.Fprintf(b, "| %s | 0 | 0 | — | — | — | **NEVER FIRED** |\n", name)
			continue
		}
		flag := ""
		if a.Fresh == 0 {
			flag = "zero yield"
		}
		first, lastFresh := "—", "—"
		if a.FirstDepth >= 0 {
			first = fmt.Sprintf("%d", a.FirstDepth)
		}
		if a.LastFreshDepth >= 0 {
			lastFresh = fmt.Sprintf("%d", a.LastFreshDepth)
		}
		fmt.Fprintf(b, "| %s | %d | %d | %.1f%% | %s | %s | %s |\n",
			name, a.Fired, a.Fresh, 100*a.Yield(), first, lastFresh, flag)
	}
	if nf := cover.NeverFired(); len(nf) > 0 {
		fmt.Fprintf(b, "\n**Warning:** %d declared action(s) never fired: %s. "+
			"Either the budget never enables them or the declared vocabulary has drifted from the model.\n",
			len(nf), strings.Join(nf, ", "))
	}
	if cover.SymmetryHits > 0 {
		fmt.Fprintf(b, "\nSymmetry reduction collapsed %d successor(s) onto canonical representatives.\n", cover.SymmetryHits)
	}
}

// barWidth is the histogram bar scale in characters.
const barWidth = 40

func renderDepthProfile(b *strings.Builder, cover *obs.Cover) {
	if cover == nil || len(cover.Levels) == 0 {
		return
	}
	maxFresh := 0
	for _, lv := range cover.Levels {
		if lv.Fresh > maxFresh {
			maxFresh = lv.Fresh
		}
	}
	fmt.Fprintf(b, "\n## Depth profile\n\n")
	fmt.Fprintf(b, "| depth | frontier | fresh | transitions | dedup | fp probes | viol | fresh states |\n|---|---|---|---|---|---|---|---|\n")
	for _, lv := range cover.Levels {
		bar := ""
		if maxFresh > 0 {
			bar = strings.Repeat("█", lv.Fresh*barWidth/maxFresh)
		}
		mark := ""
		if lv.Checkpoint {
			mark = " ⏺"
		}
		fmt.Fprintf(b, "| %d | %d | %d | %d | %.1f%% | %d | %d | `%s`%s |\n",
			lv.Depth, lv.Frontier, lv.Fresh, lv.Transitions, 100*lv.DedupRatio(), lv.FpsetProbes, lv.Violations, bar, mark)
	}
	fmt.Fprintf(b, "\n(`⏺` marks levels where a checkpoint was written.)\n")
}

func renderTimeline(b *strings.Builder, events []obs.Event) {
	var levels []obs.Event
	var stalls []obs.Event
	for _, e := range events {
		switch {
		case e.Layer == "spec" && e.Kind == "level":
			levels = append(levels, e)
		case e.Layer == "obs" && e.Kind == "stall":
			stalls = append(stalls, e)
		}
	}
	if len(levels) == 0 && len(stalls) == 0 {
		return
	}
	fmt.Fprintf(b, "\n## Throughput timeline\n\n")
	if len(levels) > 0 {
		fmt.Fprintf(b, "| seq | depth | distinct | queue | transitions | dedup hits |\n|---|---|---|---|---|---|\n")
		for _, e := range levels {
			fmt.Fprintf(b, "| %d | %s | %s | %s | %s | %s |\n", e.Seq,
				orDash(e.Detail["depth"]), orDash(e.Detail["distinct"]), orDash(e.Detail["queue"]),
				orDash(e.Detail["transitions"]), orDash(e.Detail["dedup_hits"]))
		}
	}
	for _, e := range stalls {
		fmt.Fprintf(b, "\n**Stall warning** after %s report(s) without new distinct states (distinct %s, depth %s).\n",
			orDash(e.Detail["reports"]), orDash(e.Detail["distinct"]), orDash(e.Detail["depth"]))
	}
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func renderCounterexample(b *strings.Builder, d *Data) {
	result, _ := d.Metrics["result"].(map[string]any)
	if len(result) == 0 {
		return
	}
	first, hasViolation := result["first_violation"]
	divergence, hasDivergence := result["divergence"]
	discrepancy, hasDiscrepancy := result["discrepancy"]
	_, hasShrink := result["shrink_original_len"]
	if !hasViolation && !hasDivergence && !hasDiscrepancy && !hasShrink {
		return
	}
	fmt.Fprintf(b, "\n## Counterexample\n\n")
	if hasViolation {
		fmt.Fprintf(b, "- First violation: %v\n", first)
	}
	if hasDivergence {
		fmt.Fprintf(b, "- Replay divergence: %v\n", divergence)
	}
	if hasDiscrepancy {
		fmt.Fprintf(b, "- Conformance discrepancy: %v\n", discrepancy)
	}
	if hasShrink {
		orig := formatValue("", result["shrink_original_len"])
		minLen := formatValue("", result["shrink_minimized_len"])
		attempts := formatValue("", result["shrink_attempts"])
		fmt.Fprintf(b, "- Shrink: %s → %s events (%s candidate(s) evaluated)\n", orig, minLen, attempts)
	}
}

// WriteFile renders the report to path ("-" or "" writes to stdout).
func WriteFile(path string, d *Data) error {
	if path == "" || path == "-" {
		return Render(os.Stdout, d)
	}
	var b strings.Builder
	if err := Render(&b, d); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
