package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"github.com/sandtable-go/sandtable/benchmark/probe"
	"github.com/sandtable-go/sandtable/internal/obs"
)

// Span is one record of the traced run. Spans of one in-process run share
// Run; Parent is the ID of the span that caused this one (0 for a root). A
// layer span covers all calls into that layer during its parent level:
// Start/End are the level's, BusyNs is the time actually spent in the calls,
// and a level's self time is its duration minus its children's BusyNs.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	Depth   int    `json:"depth,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Items   int64  `json:"items,omitempty"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

func (l *spanLog) add(s Span) int {
	s.ID = len(l.Spans) + 1
	if s.BusyNs == 0 {
		s.BusyNs = s.EndNs - s.StartNs
	}
	l.Spans = append(l.Spans, s)
	return s.ID
}

// addProbe converts one decorated run into spans: a root, one child per BFS
// level (the tail after the last level is depth -1), and under each level one
// span per layer that was called during it.
func (l *spanLog) addProbe(run, root string, p *probe.Machine, wallNs int64) {
	rootID := l.add(Span{Run: run, Name: root, EndNs: wallNs})
	for _, lv := range p.Levels {
		id := l.add(Span{Parent: rootID, Run: run, Name: "explorer.level", Depth: lv.Depth,
			StartNs: lv.StartNs, EndNs: lv.EndNs})
		for k := probe.Kind(0); k < probe.NumKinds; k++ {
			if a := lv.Spans[k]; a.Calls > 0 {
				l.add(Span{Parent: id, Run: run, Name: k.String(), Depth: lv.Depth,
					StartNs: lv.StartNs, EndNs: lv.EndNs, BusyNs: a.BusyNs, Calls: a.Calls, Items: a.Items})
			}
		}
	}
}

// write stores the log as trace-<workload>.json in dir.
func (l *spanLog) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.Workload+".json")
	buf, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// levelTracer builds the obs.Tracer handed to a decorated run: its only job
// is to turn the explorer's "level" events into probe level marks. atLevel,
// when set, runs at each mark and its duration is charged to the decorator's
// bookkeeping span, not to the explorer.
func levelTracer(p *probe.Machine, atLevel func()) *obs.Tracer {
	tr := obs.NewTracer(io.Discard)
	tr.Tee(func(e obs.Event) {
		if e.Kind != "level" {
			return
		}
		depth, _ := strconv.Atoi(e.Detail["depth"])
		p.MarkLevel(depth)
		if atLevel != nil {
			t0 := time.Now()
			atLevel()
			p.Charge(probe.Bookkeeping, time.Since(t0))
		}
	})
	return tr
}

// dirBytes sums the sizes of the regular files under the given directories.
func dirBytes(dirs ...string) int64 {
	var n int64
	for _, d := range dirs {
		filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return nil
			}
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
			return nil
		})
	}
	return n
}

// heapDelta is what the Go runtime did between two points of an in-process
// run: the hard counters the ROADMAP wants gates hung on.
type heapDelta struct {
	Mallocs, Bytes uint64
	GCCycles       uint32
	GCCPUSeconds   float64
}

type heapMark struct {
	ms    runtime.MemStats
	gcCPU float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func markHeap() heapMark {
	var m heapMark
	runtime.ReadMemStats(&m.ms)
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	return m
}

func (a heapMark) since() heapDelta {
	b := markHeap()
	return heapDelta{
		Mallocs:      b.ms.Mallocs - a.ms.Mallocs,
		Bytes:        b.ms.TotalAlloc - a.ms.TotalAlloc,
		GCCycles:     b.ms.NumGC - a.ms.NumGC,
		GCCPUSeconds: b.gcCPU - a.gcCPU,
	}
}

// runTraced is the --trace 1 run of a workload: everything in-process, on one
// P, so that a layer's self time is plain subtraction.
func (h *harness) runTraced(workload string) (*outcome, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	o := h.newOutcome(workload, true)
	for _, m := range h.contract.PerLayer {
		o.Metrics[m.Name] = 0
	}
	if _, err := h.buildBinary(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	log := &spanLog{Workload: workload, Seed: h.seed}
	dir := filepath.Join(h.work, workload+"-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var err error
	switch workload {
	case wlInRAM, wlSpill, wlCluster:
		err = h.tracedExplore(o, log, workload, dir)
	case wlWorkflow:
		err = h.tracedWorkflow(o, log, dir)
	}
	if err != nil {
		return nil, err
	}
	h.coldStart(o)

	path, err := log.write(h.out)
	o.op("span-file", err == nil, "%v", err)
	if err == nil {
		h.logf("%d spans written to %s", len(log.Spans), path)
	}
	o.Metrics["failed_frac"] = ratio(float64(o.Failed), float64(o.Attempted))
	return o, nil
}

// coldStart measures what every process-level metric pays before any work:
// exec, runtime start, flag parsing, session construction, one block.
func (h *harness) coldStart(o *outcome) {
	var ms []float64
	for i := 0; i < 9; i++ {
		r := h.runChild(1, h.sz.ChildDeadline, "check", "-system", h.sz.System, "-fixed",
			"-workers", "1", "-max-states", "1", "-trace=false")
		if r.Err != nil {
			o.op("cold-start", false, "%v %s", r.Err, tail(r.Stderr, 300))
			return
		}
		ms = append(ms, millis(r.Wall))
	}
	o.op("cold-start", true, "")
	o.Metrics["cmd.cold_start_ms"] = median(ms)
}
