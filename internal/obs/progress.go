package obs

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Progress is a point-in-time snapshot of a checking run, delivered to a
// ProgressFunc on the reporter's cadence — the reproduction's analogue of
// TLC's periodic "Progress(depth): N states generated, M distinct states
// found, K states left on queue" lines.
type Progress struct {
	// DistinctStates is the number of distinct (fingerprint-deduplicated)
	// states discovered so far. For stateless search it counts raw visits.
	DistinctStates int
	// QueueLen is the current BFS frontier size (states awaiting expansion
	// plus states discovered for the next level). Zero for walk modes.
	QueueLen int
	// Transitions is the number of successor states generated (including
	// duplicates).
	Transitions int64
	// DedupHits is the number of successors discarded because their
	// canonical fingerprint was already visited.
	DedupHits int64
	// Depth is the current BFS level (walk modes: the walk index).
	Depth int
	// StatesPerSec is the distinct-state throughput over the reporting
	// window (not the whole run), the quantity behind the paper's 10^9
	// states/machine-day headline.
	StatesPerSec float64
	// StatesPerSecEWMA smooths StatesPerSec with an exponentially weighted
	// moving average across reports, so one slow window does not read as a
	// collapse.
	StatesPerSecEWMA float64
	// ETA estimates the time until the search exhausts its space, derived
	// from the dedup-rate curve: each expanded state yields m fresh states
	// on average over the window; when m < 1 the frontier is a shrinking
	// geometric series and queue/(1-m) expansions remain. Zero when the
	// space is still growing (m >= 1) or no estimate is possible — TLC's
	// progress estimation, adapted to frontier arithmetic.
	ETA time.Duration
	// Stalled marks a report inside a plateau: at least three consecutive
	// reports discovered zero new distinct states. A long
	// stalled stretch usually means the run is grinding a saturated dedup
	// plateau rather than finding new behaviour.
	Stalled bool
	// StallWarning is set on exactly the first Stalled report of each
	// plateau — the edge on which warnings and trace events fire once.
	StallWarning bool
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Final marks the last report of a run (emitted unconditionally).
	Final bool
	// Warning carries an out-of-band degradation notice (checkpoint write
	// failure, spill fallback). A report with Warning set is delivered via
	// Reporter.Warnf outside the normal cadence and has all counter fields
	// zero.
	Warning string
}

// DedupRatio is the fraction of generated successors that were duplicates.
func (p Progress) DedupRatio() float64 {
	if p.Transitions == 0 {
		return 0
	}
	return float64(p.DedupHits) / float64(p.Transitions)
}

// String renders the TLC-style progress line, extended with the analytics
// fields when they carry information: smoothed throughput, the dedup-curve
// ETA, and a stall marker. Warning-only reports render as a warning line.
func (p Progress) String() string {
	if p.Warning != "" {
		return "warning: " + p.Warning
	}
	s := fmt.Sprintf("progress(%d): %d distinct states, queue %d, %d transitions, dedup %.1f%%, %.0f states/s, elapsed %s",
		p.Depth, p.DistinctStates, p.QueueLen, p.Transitions, 100*p.DedupRatio(), p.StatesPerSec, p.Elapsed.Round(time.Millisecond))
	if p.StatesPerSecEWMA > 0 && !p.Final {
		s += fmt.Sprintf(", ~%.0f states/s avg", p.StatesPerSecEWMA)
	}
	if p.ETA > 0 && !p.Final {
		s += fmt.Sprintf(", ETA %s", p.ETA.Round(time.Second))
	}
	if p.Stalled {
		s += " [stalled]"
	}
	return s
}

// ProgressFunc receives progress snapshots during a run.
type ProgressFunc func(Progress)

// PrintProgress returns a ProgressFunc writing TLC-style lines to w, plus a
// one-line warning on the leading edge of each stall plateau.
func PrintProgress(w io.Writer) ProgressFunc {
	return func(p Progress) {
		fmt.Fprintln(w, p.String())
		if p.StallWarning {
			fmt.Fprintf(w, "warning: no new distinct states across recent reports — the run may be grinding a saturated dedup plateau\n")
		}
	}
}

// StderrProgress is the default progress printer.
func StderrProgress() ProgressFunc { return PrintProgress(os.Stderr) }

// Reporter throttles progress callbacks to a wall-clock interval. It is not
// concurrency-safe: the explorer drives it from its serial merge loop.
type Reporter struct {
	// Tracer, when set, receives one {layer: "obs", kind: "stall"} event
	// per detected plateau, so stalls are visible in the JSONL record as
	// well as on stderr. Set before the first Maybe/Emit call.
	Tracer *Tracer

	fn       ProgressFunc
	interval time.Duration
	now      func() time.Time

	start      time.Time
	lastEmit   time.Time
	lastStates int
	lastQueue  int

	ewma     float64
	ewmaSet  bool
	zeroRuns int
	stalled  bool
}

// NewReporter builds a reporter invoking fn at most once per interval, or
// every defaultInterval when interval is zero. A nil fn yields a reporter
// whose methods no-op.
func NewReporter(fn ProgressFunc, interval time.Duration) *Reporter {
	return NewReporterClock(fn, interval, time.Now)
}

// NewReporterClock is NewReporter with an injectable clock, for tests.
func NewReporterClock(fn ProgressFunc, interval time.Duration, now func() time.Time) *Reporter {
	if interval == 0 {
		interval = defaultInterval
	}
	r := &Reporter{fn: fn, interval: interval, now: now}
	r.start = now()
	r.lastEmit = r.start
	return r
}

// defaultInterval is the cadence of a reporter given no interval.
const defaultInterval = 5 * time.Second

// Due reports whether the interval has elapsed since the last report. The
// explorer calls this from its merge loop; it costs one clock read.
func (r *Reporter) Due() bool {
	if r == nil || r.fn == nil {
		return false
	}
	return r.now().Sub(r.lastEmit) >= r.interval
}

// ewmaAlpha weights the newest window's throughput in the smoothed rate;
// ~0.3 follows a shift within 3-4 reports without tracking every wobble.
const ewmaAlpha = 0.3

// stallAfter is the plateau length: the number of consecutive reports with
// zero new distinct states after which the reporter marks the run stalled
// (Progress.Stalled, with Progress.StallWarning on the plateau's first
// stalled report).
const stallAfter = 3

// Emit fills the rate/elapsed/analytics fields of p and delivers it,
// resetting the cadence. Call after Due returns true, or unconditionally
// for the final report (set p.Final).
//
// Analytics computed here, all from deltas between consecutive reports:
// the smoothed throughput (StatesPerSecEWMA), the dedup-curve ETA (see
// Progress.ETA), and stall detection (Stalled/StallWarning, after stallAfter
// reports). Final reports carry the smoothed rate but no ETA or stall
// edge — the run is already over.
func (r *Reporter) Emit(p Progress) {
	if r == nil || r.fn == nil {
		return
	}
	t := r.now()
	p.Elapsed = t.Sub(r.start)
	fresh := p.DistinctStates - r.lastStates
	window := t.Sub(r.lastEmit)
	if window > 0 {
		p.StatesPerSec = float64(fresh) / window.Seconds()
		if !r.ewmaSet {
			r.ewma, r.ewmaSet = p.StatesPerSec, true
		} else {
			r.ewma = ewmaAlpha*p.StatesPerSec + (1-ewmaAlpha)*r.ewma
		}
	}
	p.StatesPerSecEWMA = r.ewma

	if !p.Final {
		// ETA from the dedup-rate curve: over the window the frontier
		// consumed `expanded` states and gained `fresh`, so each expansion
		// multiplies the frontier by m = fresh/expanded. When m < 1 the
		// remaining work is the geometric series queue/(1-m) expansions at
		// the window's expansion rate.
		expanded := fresh - (p.QueueLen - r.lastQueue)
		if expanded > 0 && window > 0 && p.QueueLen > 0 {
			m := float64(fresh) / float64(expanded)
			if m < 1 {
				remaining := float64(p.QueueLen) / (1 - m)
				rate := float64(expanded) / window.Seconds()
				if rate > 0 {
					p.ETA = time.Duration(remaining / rate * float64(time.Second)).Round(time.Millisecond)
				}
			}
		}

		if fresh == 0 {
			r.zeroRuns++
		} else {
			r.zeroRuns, r.stalled = 0, false
		}
		if r.zeroRuns >= stallAfter {
			p.Stalled = true
			if !r.stalled {
				p.StallWarning = true
				r.stalled = true
				r.Tracer.Emit(Event{
					Layer: "obs", Kind: "stall", Node: -1,
					Detail: map[string]string{
						"reports":  fmt.Sprintf("%d", r.zeroRuns),
						"distinct": fmt.Sprintf("%d", p.DistinctStates),
						"depth":    fmt.Sprintf("%d", p.Depth),
					},
				})
			}
		}
	}

	r.lastEmit = t
	r.lastStates = p.DistinctStates
	r.lastQueue = p.QueueLen
	r.fn(p)
}

// Warnf delivers an out-of-band warning through the progress callback,
// bypassing the cadence and leaving it undisturbed (no counter or rate state
// changes). Nil-safe; no-op without a callback.
func (r *Reporter) Warnf(format string, args ...any) {
	if r == nil || r.fn == nil {
		return
	}
	r.fn(Progress{Warning: fmt.Sprintf(format, args...)})
}

// Maybe emits p when the cadence is due. Returns true when it emitted.
func (r *Reporter) Maybe(p Progress) bool {
	if !r.Due() {
		return false
	}
	r.Emit(p)
	return true
}
