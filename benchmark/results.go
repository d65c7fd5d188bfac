package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// ResultFile is what a full run writes and what -compare reads: one set of
// runs of one commit.
type ResultFile struct {
	Schema    int                        `json:"schema"`
	Env       Environment                `json:"env"`
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

// Environment is what a reader needs to judge the noise of a result file.
type Environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"harness_gomaxprocs"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
	// Scrubbed lists the variables removed from every child's environment,
	// with the value each had in the caller's.
	Scrubbed map[string]string `json:"scrubbed_env"`
}

// MetricResult is one metric of one workload over the reps.
type MetricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Summary
	Values []float64 `json:"values,omitempty"`
}

// WorkloadResult is everything measured on one workload.
type WorkloadResult struct {
	Why        string                  `json:"why"`
	EndToEnd   map[string]MetricResult `json:"end_to_end"`
	PerLayer   map[string]MetricResult `json:"per_layer"`
	Counts     map[string]int64        `json:"counts"`
	Shares     map[string]float64      `json:"traced_shares"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	FailedFrac float64                 `json:"failed_frac"`
	Iterations []int                   `json:"iterations_per_rep"`
	Checks     []check                 `json:"failed_checks,omitempty"`
	Children   []childInfo             `json:"children"`
	TraceFile  string                  `json:"trace_file"`
}

func (h *harness) environment(reps int) Environment {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: commit, Seed: h.seed, Reps: reps, Seconds: h.seconds,
		Sizes: h.sz, Scrubbed: h.removed,
	}
}

// runAll is the one command of the issue: every workload end to end with
// tracing off (reps times, seeds seed..seed+reps-1), then every workload's
// traced run; every metric printed by name and unit; every correctness check
// applied, including the ones that need two workloads side by side.
//
// All child-process work comes before any in-process work. On Linux a child's
// ru_maxrss survives exec, so it is never below the RSS its parent had when it
// forked: once the harness has explored a few hundred thousand states itself,
// every later child would report the harness's peak, not its own.
func (h *harness) runAll(reps int, out string) (failed bool, err error) {
	rf := &ResultFile{Schema: 1, Env: h.environment(reps), Workloads: make(map[string]*WorkloadResult)}
	baseSeed := h.seed
	defer func() { h.seed = baseSeed }()
	for _, w := range h.contract.Workloads {
		wr := &WorkloadResult{Why: w.Why, EndToEnd: map[string]MetricResult{}, PerLayer: map[string]MetricResult{}, Counts: map[string]int64{}}
		rf.Workloads[w.Name] = wr
		values := make(map[string][]float64)
		for rep := 0; rep < reps; rep++ {
			h.seed = baseSeed + int64(rep)
			h.logf("%s: tracing-off run %d/%d (seed %d)", w.Name, rep+1, reps, h.seed)
			o, err := h.runE2E(w.Name)
			if err != nil {
				return true, fmt.Errorf("%s: %w", w.Name, err)
			}
			if _, err := project(h.contract.EndToEnd, o.Metrics); err != nil {
				return true, err
			}
			for name, v := range o.Metrics {
				values[name] = append(values[name], v)
			}
			wr.merge(o)
		}
		for _, s := range h.contract.EndToEnd {
			wr.EndToEnd[s.Name] = MetricResult{Unit: s.Unit, Better: s.Better, Bound: s.Bound,
				Summary: summarize(values[s.Name]), Values: values[s.Name]}
		}
	}
	h.seed = baseSeed
	for _, w := range h.contract.Workloads {
		wr := rf.Workloads[w.Name]
		h.logf("%s: traced run (seed %d)", w.Name, h.seed)
		o, err := h.runTraced(w.Name)
		if err != nil {
			return true, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		if _, err := project(h.contract.PerLayer, o.Metrics); err != nil {
			return true, err
		}
		for _, s := range h.contract.PerLayer {
			wr.PerLayer[s.Name] = MetricResult{Unit: s.Unit, Better: s.Better,
				Summary: summarize([]float64{o.Metrics[s.Name]})}
		}
		wr.merge(o)
		wr.Shares = o.Shares
		wr.TraceFile = filepath.Join(h.out, "trace-"+w.Name+".json")
		wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	}
	h.crossChecks(rf)

	rf.print(h.contract)
	if out == "" {
		out = filepath.Join(h.out, fmt.Sprintf("result-seed%d.json", h.seed))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return true, err
	}
	buf, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return true, err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return true, err
	}
	fmt.Printf("\nresult file: %s\n", out)
	for _, wr := range rf.Workloads {
		failed = failed || wr.Failed > 0
	}
	return failed, nil
}

// merge folds one run's accounting into the workload's. Counts of the traced
// run and of later reps must repeat the first exactly (counts that depend on
// the seed carry it in their name).
func (wr *WorkloadResult) merge(o *outcome) {
	wr.Attempted += o.Attempted
	wr.Failed += o.Failed
	if !o.Traced {
		wr.Iterations = append(wr.Iterations, o.Iterations)
	}
	for _, c := range o.Checks {
		if !c.OK {
			wr.Checks = append(wr.Checks, c)
		}
	}
	wr.Children = append(wr.Children, o.Children...)
	for name, v := range o.Counts {
		prev, seen := wr.Counts[name]
		if !seen {
			wr.Counts[name] = v
			continue
		}
		wr.Attempted++
		if prev != v {
			wr.Failed++
			wr.Checks = append(wr.Checks, check{Name: "repeat-across-reps:" + name, Detail: fmt.Sprintf("%d then %d", prev, v)})
		}
	}
}

// crossChecks are the assertions that need two workloads' results: in-RAM and
// spilled runs report identical counts, and under the traced run's depth
// bound so does the cluster.
func (h *harness) crossChecks(rf *ResultFile) {
	a, b, c := rf.Workloads[wlInRAM], rf.Workloads[wlSpill], rf.Workloads[wlCluster]
	if a == nil {
		return
	}
	same := func(wr *WorkloadResult, keys ...string) {
		if wr == nil {
			return
		}
		for _, k := range keys {
			wr.Attempted++
			if wr.Counts[k] != a.Counts[k] {
				wr.Failed++
				wr.Checks = append(wr.Checks, check{Name: "equals-" + wlInRAM + ":" + k,
					Detail: fmt.Sprintf("%d, in-RAM %d", wr.Counts[k], a.Counts[k])})
			}
		}
		wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	}
	traced := []string{"traced.distinct_states", "traced.transitions", "traced.max_depth"}
	same(b, append([]string{"distinct_states", "transitions", "max_depth"}, traced...)...)
	// Under -max-states the cluster legitimately overshoots by a different
	// block, so only its depth-bounded traced run is compared.
	same(c, traced...)
}

// print lists every metric of every workload by name, with its unit.
func (rf *ResultFile) print(c *Contract) {
	for _, w := range c.Workloads {
		wr := rf.Workloads[w.Name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n== %s — %d operations attempted, %d failed (failed_frac %.4f), iterations per run %v\n",
			w.Name, wr.Attempted, wr.Failed, wr.FailedFrac, wr.Iterations)
		fmt.Printf("   %-42s %14s %-8s %7s  %s\n", "end to end (tracing off)", "median", "unit", "spread", "min … max (n)")
		for _, s := range c.EndToEnd {
			m := wr.EndToEnd[s.Name]
			fmt.Printf("   %-42s %14.4f %-8s %6.1f%%  %.4f … %.4f (%d)\n", s.Name, m.Median, m.Unit, 100*m.Spread(), m.Min, m.Max, m.N)
		}
		fmt.Printf("   %-42s %14s %-8s\n", "per layer (traced run)", "value", "unit")
		for _, s := range c.PerLayer {
			fmt.Printf("   %-42s %14.4f %-8s\n", s.Name, wr.PerLayer[s.Name].Median, s.Unit)
		}
		for _, k := range slices.Sorted(maps.Keys(wr.Shares)) {
			fmt.Printf("   share %-36s %13.1f%%\n", k, 100*wr.Shares[k])
		}
		for _, k := range slices.Sorted(maps.Keys(wr.Counts)) {
			fmt.Printf("   count %-36s %14d\n", k, wr.Counts[k])
		}
		for _, ck := range wr.Checks {
			fmt.Printf("   FAILED %s: %s\n", ck.Name, ck.Detail)
		}
		fmt.Printf("   spans: %s\n", wr.TraceFile)
	}
}
