// Command clustercmp asserts that two SandTable runs explored the same
// state space. It compares -metrics-out snapshots on every
// schedule-independent field — result counters, stop decision, violation
// set, and the full coverage profile — while ignoring the fields that
// legitimately differ between a single-process run and a cluster run
// (wall-clock duration, throughput, peak queue length, fpset probe
// counts, checkpoint placement). `make cluster` uses it to gate the
// distributed-equivalence guarantee in CI: a 3-peer localhost run must
// match the single-process reference bit for bit on everything that
// describes the explored graph rather than the machinery that explored
// it.
//
// Usage: clustercmp -ref REFERENCE.json CANDIDATE.json ...
//
// The reference should be a single-process -workers 1 run (or any
// cluster run): those produce the canonical coverage attribution.
// Single-process -workers N>1 runs attribute per-action fresh-state
// credit by worker arrival order; compare those with -totals, which
// drops per-action fresh/last_fresh_depth from the signature while
// still checking every total. The exit status is the gate: 0 only if
// every candidate matches the reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
)

// signature is the schedule-independent projection of a metrics
// snapshot: equal signatures mean the runs explored the same graph,
// stopped for the same reason, and found the same violations.
type signature struct {
	Result map[string]any `json:"result"`
	Cover  map[string]any `json:"cover"`
	// Resumed marks a run that continued from a checkpoint. Its coverage
	// profile describes the continuation only (ResumedAtDepth onward), so
	// cover comparison is skipped when either side resumed; the result
	// block still carries cumulative counters and must match.
	Resumed bool
}

// resultKeys are the result fields that must match exactly. Notably
// absent: duration_ns, states_per_sec (wall clock), max_queue_len
// (summed across peers in a cluster run), checkpoints and resumed
// (operational history, not graph shape). The shrink and replay keys exist
// only in shrink/confirm runs; a key absent on both sides compares equal.
var resultKeys = []string{
	"distinct_states", "transitions", "dedup_hits", "dedup_ratio",
	"max_depth", "stop_reason", "exhausted", "violations", "first_violation",
	"shrink_original_len", "shrink_minimized_len", "shrink_attempts",
	"replay_steps", "confirmed",
}

func main() {
	refPath := flag.String("ref", "", "reference metrics snapshot (single-process -workers 1 run)")
	totals := flag.Bool("totals", false, "skip per-action fresh/last_fresh_depth (reference ran with -workers > 1)")
	flag.Parse()
	if *refPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: clustercmp -ref REFERENCE.json [-totals] CANDIDATE.json ...")
		os.Exit(2)
	}

	ref, err := loadSignature(*refPath, *totals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clustercmp: %s: %v\n", *refPath, err)
		os.Exit(1)
	}

	failed := false
	for _, path := range flag.Args() {
		cand, err := loadSignature(path, *totals)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clustercmp: %s: %v\n", path, err)
			failed = true
			continue
		}
		diffs := compare(ref, cand)
		if len(diffs) == 0 {
			fmt.Printf("%s: matches %s\n", path, *refPath)
			continue
		}
		failed = true
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "clustercmp: %s: %s\n", path, d)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadSignature projects one snapshot file down to its comparable core.
func loadSignature(path string, totals bool) (signature, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return signature{}, err
	}
	var snap struct {
		Result map[string]any `json:"result"`
		Cover  map[string]any `json:"cover"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return signature{}, err
	}
	if snap.Result == nil {
		return signature{}, fmt.Errorf("no result block (not a -metrics-out snapshot from a completed run?)")
	}
	sig := signature{Result: map[string]any{}, Cover: map[string]any{}}
	if r, ok := snap.Result["resumed"].(bool); ok && r {
		sig.Resumed = true
	}
	for _, k := range resultKeys {
		if v, ok := snap.Result[k]; ok {
			sig.Result[k] = v
		}
	}
	if snap.Cover != nil {
		sig.Cover["symmetry_hits"] = snap.Cover["symmetry_hits"]
		sig.Cover["declared"] = snap.Cover["declared"]
		sig.Cover["actions"] = projectActions(snap.Cover["actions"], totals)
		sig.Cover["levels"] = projectLevels(snap.Cover["levels"])
	}
	return sig, nil
}

// projectActions keeps the per-action fields that are deterministic for
// the comparison mode. fired and first_depth are deterministic at every
// worker count; fresh and last_fresh_depth are attribution, canonical
// only for -workers 1 and cluster runs.
func projectActions(v any, totals bool) any {
	m, ok := v.(map[string]any)
	if !ok {
		return v
	}
	out := make(map[string]any, len(m))
	for name, av := range m {
		a, ok := av.(map[string]any)
		if !ok {
			out[name] = av
			continue
		}
		p := map[string]any{"fired": a["fired"], "first_depth": a["first_depth"]}
		if !totals {
			p["fresh"] = a["fresh"]
			p["last_fresh_depth"] = a["last_fresh_depth"]
		}
		out[name] = p
	}
	return out
}

// projectLevels drops the machinery fields from each per-level entry:
// fpset_probes counts hash-table work, which partitioning redistributes,
// and checkpoint marks where snapshots landed, which cadence decides.
func projectLevels(v any) any {
	ls, ok := v.([]any)
	if !ok {
		return v
	}
	out := make([]any, 0, len(ls))
	for _, lv := range ls {
		l, ok := lv.(map[string]any)
		if !ok {
			out = append(out, lv)
			continue
		}
		out = append(out, map[string]any{
			"depth": l["depth"], "frontier": l["frontier"], "fresh": l["fresh"],
			"transitions": l["transitions"], "dedup": l["dedup"], "violations": l["violations"],
		})
	}
	return out
}

// compare reports one line per mismatched field so a CI failure names
// exactly what diverged instead of dumping both snapshots.
func compare(ref, cand signature) []string {
	var diffs []string
	for _, k := range resultKeys {
		rv, rok := ref.Result[k]
		cv, cok := cand.Result[k]
		if rok != cok {
			diffs = append(diffs, fmt.Sprintf("result.%s: present=%v in reference, present=%v in candidate", k, rok, cok))
			continue
		}
		if rok && !reflect.DeepEqual(rv, cv) {
			diffs = append(diffs, fmt.Sprintf("result.%s: reference %v, candidate %v", k, rv, cv))
		}
	}
	if ref.Resumed || cand.Resumed {
		return diffs
	}
	for _, k := range []string{"symmetry_hits", "declared", "actions", "levels"} {
		if !reflect.DeepEqual(ref.Cover[k], cand.Cover[k]) {
			diffs = append(diffs, fmt.Sprintf("cover.%s differs", k))
		}
	}
	return diffs
}
