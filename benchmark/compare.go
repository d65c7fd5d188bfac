package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's base and change. A spread wider than the bound on
// either side means the runs cannot tell a regression of that size from
// noise: the row is unresolved, not unchanged.
func judge(base, change MetricResult) (worse float64, verdict string) {
	if base.Median != 0 {
		worse = (change.Median - base.Median) / base.Median
		if base.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case base.Spread() > base.Bound || change.Spread() > base.Bound:
		return worse, verdictUnresolved
	case worse > base.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readResultFile(path string) (*ResultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of two result
// files — base first — and reports whether anything regressed: a median worse
// than the base by more than the metric's bound, a rise in failed_frac, or an
// exact count that differs. The bound is the base file's, which copied it
// from its BENCHMARK.json.
func compareFiles(w io.Writer, basePath, changePath string) (regressed bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base   %s  commit %s  seed %d  reps %d\n", basePath, base.Env.Commit, base.Env.Seed, base.Env.Reps)
	fmt.Fprintf(w, "change %s  commit %s  seed %d  reps %d\n\n", changePath, change.Env.Commit, change.Env.Seed, change.Env.Reps)
	if base.Env.Sizes.Name != change.Env.Sizes.Name || base.Env.Sizes.MaxStates != change.Env.Sizes.MaxStates {
		return false, fmt.Errorf("the files were measured at different sizes (%s/%d and %s/%d): nothing to compare",
			base.Env.Sizes.Name, base.Env.Sizes.MaxStates, change.Env.Sizes.Name, change.Env.Sizes.MaxStates)
	}
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base median", "change median", "change/base", "bound", "spread a", "spread b", "verdict")
	for _, name := range workloadOrder {
		a, b := base.Workloads[name], change.Workloads[name]
		if a == nil || b == nil {
			continue
		}
		for _, metric := range slices.Sorted(maps.Keys(a.EndToEnd)) {
			ma, mb := a.EndToEnd[metric], b.EndToEnd[metric]
			worse, verdict := judge(ma, mb)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %9.4f %6.0f%% %7.1f%% %7.1f%%  %s", name, metric,
				ma.Median, mb.Median, ratio(mb.Median, ma.Median), 100*ma.Bound, 100*ma.Spread(), 100*mb.Spread(), verdict)
			if verdict != verdictOK {
				fmt.Fprintf(w, " (%+.1f%% worse, %s is better)", 100*worse, ma.Better)
			}
			fmt.Fprintln(w)
		}
		verdict := verdictOK
		if b.FailedFrac > a.FailedFrac {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %9s %6.0f%% %8s %8s  %s\n", name, "failed_frac",
			a.FailedFrac, b.FailedFrac, "", 0.0, "", "", verdict)
		for _, k := range slices.Sorted(maps.Keys(a.Counts)) {
			if vb, ok := b.Counts[k]; !ok || vb != a.Counts[k] {
				regressed = true
				fmt.Fprintf(w, "%-16s count %-16s %14d %14d  differs: counts must repeat exactly\n", name, k, a.Counts[k], vb)
			}
		}
	}
	return regressed, nil
}
