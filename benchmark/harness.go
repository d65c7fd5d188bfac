package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The four workloads, in the order a full run takes them.
const (
	wlInRAM    = "explore_inram"
	wlSpill    = "explore_spill"
	wlCluster  = "explore_cluster"
	wlWorkflow = "workflow"
)

var workloadOrder = []string{wlInRAM, wlSpill, wlCluster, wlWorkflow}

// harness is one benchmark process: where it runs, what it was asked to
// measure, and the child environment it hands every sandtable process.
type harness struct {
	root     string
	contract *Contract
	sz       sizes
	seed     int64
	seconds  float64
	// binary is the sandtable CLI built from the checkout and work is this
	// process's scratch directory, both under the build directory; out is
	// where span and result files go.
	binary string
	work   string
	out    string
	env    []string
	// removed is what the environment scrub took out, recorded in results.
	removed map[string]string
	log     io.Writer
	// nextPort is where pickPeers resumes its search.
	nextPort int
}

// newHarness prepares a harness for the checkout at root. build holds what
// building and running leave behind, out the files a reader wants to keep.
func newHarness(root, build, out string, c *Contract, sz sizes, seed int64, secs float64) (*harness, error) {
	h := &harness{
		root: root, contract: c, sz: sz, seed: seed, seconds: secs,
		binary: filepath.Join(build, "sandtable"),
		work:   filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
		out:    out,
		log:    os.Stderr,
	}
	h.env, h.removed = childEnv()
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

// close removes the process's scratch directory.
func (h *harness) close() { os.RemoveAll(h.work) }

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log, "bench: "+format+"\n", args...)
}

// check is one correctness assertion or one operation's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// childInfo records how a child was run — the noise-relevant settings.
type childInfo struct {
	Args       string  `json:"args"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    string  `json:"workers"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	MaxRSSMiB  float64 `json:"max_rss_mib"`
}

// outcome is what one run of one workload produced: the driver's unit of
// measurement. A full run aggregates several of them per workload.
type outcome struct {
	Workload   string
	Traced     bool
	Iterations int
	Metrics    map[string]float64
	// Counts are the values that must repeat exactly from run to run.
	Counts map[string]int64
	// Shares is, for a traced run, each layer's part of the decorated
	// exploration's wall clock; "explorer.self" is the remainder.
	Shares    map[string]float64
	Attempted int
	Failed    int
	Checks    []check
	Children  []childInfo

	log io.Writer
}

func (h *harness) newOutcome(workload string, traced bool) *outcome {
	return &outcome{Workload: workload, Traced: traced,
		Metrics: make(map[string]float64), Counts: make(map[string]int64), log: h.log}
}

// op records one attempted operation or correctness check.
func (o *outcome) op(name string, ok bool, format string, args ...any) bool {
	o.Attempted++
	c := check{Name: name, OK: ok}
	if !ok {
		o.Failed++
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(o.log, "bench: FAILED %s/%s: %s\n", o.Workload, name, c.Detail)
	}
	o.Checks = append(o.Checks, c)
	return ok
}

// count records an exact counter. A second value for the same name within one
// run (another iteration) must equal the first.
func (o *outcome) count(name string, v int64) {
	if prev, seen := o.Counts[name]; seen {
		o.op("repeat:"+name, prev == v, "%s was %d, now %d", name, prev, v)
		return
	}
	o.Counts[name] = v
}

// childDone records a finished child as an operation.
func (o *outcome) childDone(r *childRun, workers string) bool {
	o.Children = append(o.Children, childInfo{
		Args: strings.Join(r.Args, " "), GOMAXPROCS: r.GOMAXPROCS, Workers: workers,
		WallS: seconds(r.Wall), CPUS: seconds(r.CPU), MaxRSSMiB: float64(r.MaxRSSKiB) / 1024,
	})
	return o.op("child:"+r.Args[0], r.Err == nil, "%v\n%s", r.Err, tail(r.Stderr, 600))
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// window repeats iterate in a closed loop — the next iteration starts only
// when the previous one has finished — for as long as another iteration is
// expected to end inside the measuring window. The first always runs.
func (h *harness) window(iterate func(i int) bool) int {
	start := time.Now()
	var longest time.Duration
	n := 0
	for {
		t0 := time.Now()
		ok := iterate(n)
		n++
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if !ok || seconds(time.Since(start)+longest) > h.seconds {
			return n
		}
	}
}
