package sandtable

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/conformance"
	"github.com/sandtable-go/sandtable/internal/engine"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/replay"
	"github.com/sandtable-go/sandtable/internal/shrink"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
	"github.com/sandtable-go/sandtable/internal/transport"
	"github.com/sandtable-go/sandtable/internal/vos"
)

// The run layer: the one implementation of session → options → run → shrink
// → outcome. A front end (cmd/sandtable's flags, internal/serve's JobSpec)
// fills a Settings, looks the System up, opens the Sinks, calls one Run*
// entry point and decides where the Outcome goes. Nothing here prints,
// parses flags, serves HTTP, or knows which front end called it.

// Settings is every knob of a run: the union of the CLI's flags and the
// service's JobSpec fields, parsed and clamped by the front end and taken
// literally here (Defaults holds what the front ends start from). The target
// system and the op are not fields: the front end resolves the former to a
// *System and picks the Run* entry point by the latter. cmd/sandtable's
// parity test holds each field to a flag and a JobSpec key of the same name,
// or to an entry in its exception table.
type Settings struct {
	// Bug restricts the defect set to one catalogued defect (e.g.
	// "GoSyncObj#4"); empty means the system's verification defect set.
	Bug string
	// Nodes overrides the cluster size (0 = the system's default config).
	Nodes int
	// Fixed selects the fully fixed build (fix validation).
	Fixed bool
	// MaxTimeouts, MaxRequests, MaxDirtyCrashes and MaxBuffer override the
	// system's default spec budget when positive.
	MaxTimeouts, MaxRequests, MaxDirtyCrashes, MaxBuffer int
	// MaxCrashes overrides the crash budget when non-nil and non-negative
	// (a pointer because zero is a meaningful override).
	MaxCrashes *int

	// Deadline bounds the run's wall clock on every op that searches:
	// check and confirm stop with stop_reason "deadline", simulate and
	// conform return the walks finished by then (0 = none).
	Deadline time.Duration
	// Workers is the BFS worker count (0 = NumCPU) or, for conform, the
	// parallel replay worker count.
	Workers int
	// MaxStates stops a check after this many distinct states (0 = off).
	MaxStates int
	// MemBudget is the byte budget for exploration state; over it the
	// fingerprint set and frontier spill to disk (0 = none).
	MemBudget int64
	// SpillDir holds spill scratch files (empty = the checkpoint
	// directory, else the system temp dir).
	SpillDir string
	// Checkpoint is the snapshot directory; empty disables checkpointing.
	// CheckpointEvery and CheckpointStates set the cadence, Resume continues
	// from the snapshot already there.
	Checkpoint       string
	CheckpointEvery  time.Duration
	CheckpointStates int
	Resume           bool
	// Shrink minimizes the counterexample (check, confirm), the first
	// violating walk (simulate) or the discrepancy trace (conform) with
	// ddmin.
	Shrink bool

	// Walks, Depth, Seed and Distinct configure simulate and conform:
	// walk count, per-walk depth bound (0 = until deadlock), base seed, and
	// (simulate) distinct-state tracking across walks.
	Walks    int
	Depth    int
	Seed     int64
	Distinct bool

	// Peers, when non-empty, runs a check as peer PeerID of a distributed
	// exploration over these listen addresses; PeerTimeout bounds mesh
	// establishment (0 = 30s).
	Peers       []string
	PeerID      int
	PeerTimeout time.Duration

	// ToleratePanics turns a node panic during implementation-level replay
	// into an injected crash + restart (at most MaxAutoRestarts per node,
	// PanicCrashMode applied to its store) instead of failing the run.
	ToleratePanics  bool
	MaxAutoRestarts int
	PanicCrashMode  string
}

// Defaults returns the settings a front end starts op ("check", "simulate",
// "conform", "confirm", "replay") from: its flag defaults, and what a
// JobSpec's zero values defer to.
func Defaults(op string) Settings {
	set := Settings{Deadline: 2 * time.Minute, Walks: 100, Seed: 1, MaxAutoRestarts: 2, PanicCrashMode: string(vos.CrashClean)}
	if op == "conform" {
		set.Walks, set.Depth, set.Workers = 200, 30, 1
	}
	return set
}

// Sinks are the observability attachments of one run; every field may be
// left zero.
type Sinks struct {
	// Metrics receives every layer's counters and the phase timers.
	Metrics *obs.Registry
	// Tracer receives the structured event stream.
	Tracer *obs.Tracer
	// Progress receives periodic snapshots, at most one per
	// ProgressInterval.
	Progress         obs.ProgressFunc
	ProgressInterval time.Duration
}

// Outcome is what a run produced. Summary, Cover, Trace, Shrink and
// Warnings mean the same for every op; of the typed results only the op's
// own are set.
type Outcome struct {
	// Summary is the result block of the metrics artifact (and a job's
	// result.json).
	Summary map[string]any
	// Cover is the run's coverage profile (nil for conform and replay).
	Cover *obs.Cover
	// Trace is the trace the run ends on — the counterexample, the first
	// violating walk, the discrepancy trace, or the replayed trace —
	// minimized when Settings.Shrink asked and shrinking succeeded; nil when
	// there is none.
	Trace *trace.Trace
	// Shrink is the minimization's statistics (nil unless one succeeded).
	Shrink *shrink.Result
	// Warnings are degradations the run survived (a failed shrink keeps the
	// original trace); they also appear under Summary["warnings"].
	Warnings []string

	// Check is the exploration result (check, confirm).
	Check *explorer.Result
	// Violation is the first violation (check, confirm) or the first
	// violating walk's (simulate).
	Violation *explorer.Violation
	// Sim aggregates the walks of a simulate run; Distinct is the size of
	// its shared fingerprint set.
	Sim      *explorer.AggregateStats
	Distinct int64
	// Conform is the conformance report.
	Conform *conformance.Report
	// Replay is the implementation-level replay (confirm, replay).
	Replay *replay.Result
}

// Metrics assembles the metrics artifact: the registry snapshot stamped with
// the schema version, plus the outcome's result summary and coverage
// profile. An empty outcome (a run still in flight) yields the bare snapshot.
func (o *Outcome) Metrics(reg *obs.Registry) map[string]any {
	snap := reg.Snapshot()
	snap["schema"] = obs.MetricsSchemaVersion
	if o.Summary != nil {
		snap["result"] = o.Summary
	}
	if o.Cover != nil {
		snap["cover"] = o.Cover
	}
	return snap
}

// WriteTrace encodes tr as JSON to path (replayable with `sandtable replay
// -trace`). A short write is an error: Close is checked.
func WriteTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewSession builds the session set describes for sys: config and budget
// overrides on the system's defaults, and the defect set selected by Fixed
// and Bug.
func NewSession(sys *System, set Settings) (*SandTable, error) {
	cfg := sys.DefaultConfig
	if set.Nodes > spec.MaxNodes {
		return nil, fmt.Errorf("%d nodes: a specification state indexes at most %d", set.Nodes, spec.MaxNodes)
	}
	if set.Nodes > 0 {
		cfg = spec.Config{Name: fmt.Sprintf("n%dw2", set.Nodes), Nodes: set.Nodes, Workload: []string{"v1", "v2"}}
	}
	bugs := bugdb.VerificationBugs(sys.Name)
	if set.Fixed {
		bugs = bugdb.NoBugs()
	}
	if set.Bug != "" {
		info, ok := bugdb.ByID(set.Bug)
		if !ok {
			return nil, fmt.Errorf("unknown bug id %q", set.Bug)
		}
		bugs = bugdb.NoBugs().With(info.Key)
	}
	budget := sys.DefaultBudget
	if set.MaxTimeouts > 0 {
		budget.MaxTimeouts = set.MaxTimeouts
	}
	if set.MaxRequests > 0 {
		budget.MaxRequests = set.MaxRequests
	}
	if set.MaxCrashes != nil && *set.MaxCrashes >= 0 {
		budget.MaxCrashes = *set.MaxCrashes
	}
	if set.MaxDirtyCrashes > 0 {
		budget.MaxDirtyCrashes = set.MaxDirtyCrashes
	}
	if set.MaxBuffer > 0 {
		budget.MaxBuffer = set.MaxBuffer
	}
	return New(sys, cfg, budget, bugs), nil
}

// RunCheck model-checks the session (§3.3) and, when Settings.Shrink is set,
// minimizes the counterexample. Canceling ctx stops the search at its next
// safepoint with stop_reason "canceled" (a cluster peer takes the whole
// cluster with it at the next level barrier). A run that failed returns its
// partial outcome together with the error.
func (st *SandTable) RunCheck(ctx context.Context, set Settings, sinks Sinks) (*Outcome, error) {
	opts := explorer.DefaultOptions()
	opts.Context = ctx
	opts.Deadline = set.Deadline
	opts.Workers = set.Workers
	opts.MaxStates = set.MaxStates
	opts.MemBudget = set.MemBudget
	opts.SpillDir = set.SpillDir
	opts.Cover = true
	if set.Checkpoint != "" {
		opts.Checkpoint = explorer.CheckpointOptions{
			Dir:         set.Checkpoint,
			Interval:    set.CheckpointEvery,
			EveryStates: set.CheckpointStates,
			Resume:      set.Resume,
			Label:       st.Label(),
		}
	}
	opts.Progress = sinks.Progress
	opts.ProgressInterval = sinks.ProgressInterval
	opts.Metrics = sinks.Metrics
	opts.Tracer = sinks.Tracer
	if len(set.Peers) > 0 {
		// Every peer must agree on the run configuration before any state
		// flows; the handshake digest catches a peer launched with a
		// different system, defect set, config or budget.
		h := fnv.New64a()
		io.WriteString(h, st.Label())
		fmt.Fprintf(h, "|peers=%d", len(set.Peers))
		conn, err := transport.DialTCP(transport.TCPOptions{
			Addrs:   set.Peers,
			Self:    set.PeerID,
			Digest:  h.Sum64(),
			Timeout: set.PeerTimeout,
			Metrics: transport.NewMetrics(sinks.Metrics),
		})
		if err != nil {
			return nil, err
		}
		opts.Peer = &explorer.PeerOptions{Conn: conn}
	}
	stop := sinks.Metrics.StartPhase("explore")
	res := st.Check(opts)
	stop()
	out := &Outcome{Summary: res.Summary(), Cover: res.Cover, Check: res, Violation: res.FirstViolation()}
	if res.Err != nil {
		return out, res.Err
	}
	// In a cluster only the coordinator reconstructs traces (the other peers
	// served its remote edge probes), so theirs is nil.
	if v := out.Violation; v != nil && v.Trace != nil {
		out.Trace = v.Trace
		if set.Shrink {
			// BFS counterexamples are depth-minimal, so this usually confirms
			// 1-minimality rather than shrinking; random walks and
			// divergences are where ddmin bites.
			m := st.Machine()
			minimize(out, m, shrink.InvariantOracle(m, v.Invariant), sinks)
		}
	}
	return out, nil
}

// minimize replaces out.Trace with its ddmin reduction under oracle and
// records the reduction in the summary. A failed minimization (the trace
// does not reproduce under the oracle) keeps the original trace and is
// reported as a warning, so shrinking never loses a counterexample.
func minimize(out *Outcome, m spec.Machine, oracle shrink.Oracle, sinks Sinks) {
	res, err := shrink.Minimize(m, out.Trace, oracle, shrink.Options{Metrics: sinks.Metrics, Tracer: sinks.Tracer})
	if err != nil {
		out.Warnings = append(out.Warnings, fmt.Sprintf("shrink: %v (keeping the original trace)", err))
		out.Summary["warnings"] = out.Warnings
		return
	}
	out.Shrink, out.Trace = res, res.Trace
	out.Summary["shrink_original_len"] = res.OriginalLen
	out.Summary["shrink_minimized_len"] = res.MinimizedLen
	out.Summary["shrink_attempts"] = res.Attempts
}

// RunSimulate performs Settings.Walks seeded random walks, stopping early
// (with the walks finished so far) at the deadline or when ctx is canceled —
// the latter marks the summary stop_reason "canceled". With Settings.Shrink
// the first violating walk is minimized.
func (st *SandTable) RunSimulate(ctx context.Context, set Settings, sinks Sinks) (*Outcome, error) {
	walkCtx := ctx
	if set.Deadline > 0 {
		var cancel context.CancelFunc
		walkCtx, cancel = context.WithTimeout(ctx, set.Deadline)
		defer cancel()
	}
	m := st.Machine()
	sim := explorer.NewSimulator(m, explorer.SimOptions{
		MaxDepth: set.Depth, Seed: set.Seed, CheckInvariants: true,
		TrackDistinct: set.Distinct, RecordVars: set.Shrink,
		Progress: sinks.Progress, ProgressInterval: sinks.ProgressInterval,
		Metrics: sinks.Metrics, Tracer: sinks.Tracer, Cover: true, Context: walkCtx,
	})
	stop := sinks.Metrics.StartPhase("simulate")
	results := sim.Walks(set.Walks)
	stop()
	agg := explorer.Aggregate(results)
	out := &Outcome{
		Summary: map[string]any{
			"walks":           agg.Walks,
			"branch_coverage": agg.BranchCoverage,
			"event_diversity": agg.EventDiversity,
			"max_depth":       agg.MaxDepth,
			"mean_depth":      agg.MeanDepth,
			"violations":      agg.Violations,
			"distinct_states": agg.DistinctStates,
		},
		Cover: sim.Cover(), Sim: &agg, Distinct: sim.Distinct(),
	}
	for _, w := range results {
		if w.Violation != nil {
			out.Violation, out.Trace = w.Violation, w.Trace
			if set.Shrink {
				minimize(out, m, shrink.InvariantOracle(m, w.Violation.Invariant), sinks)
			}
			break
		}
	}
	if ctx.Err() != nil {
		out.Summary["stop_reason"] = "canceled"
	}
	return out, nil
}

// RunConform replays Settings.Walks random specification traces against the
// implementation (§3.2), stopping at the first discrepancy, at the deadline,
// or — between walks — when ctx is canceled (stop_reason "canceled"). With
// Settings.Shrink the discrepancy trace is minimized against the divergence
// it showed.
func (st *SandTable) RunConform(ctx context.Context, set Settings, sinks Sinks) (*Outcome, error) {
	stop := sinks.Metrics.StartPhase("conform")
	rep, err := conformance.RunContext(ctx, st.target(), conformance.Options{
		Walks: set.Walks, WalkDepth: set.Depth, Seed: set.Seed, Workers: set.Workers,
		Timeout:  set.Deadline,
		Progress: sinks.Progress, ProgressInterval: sinks.ProgressInterval,
		Metrics: sinks.Metrics, Tracer: sinks.Tracer,
	})
	stop()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Summary: map[string]any{"walks": rep.Walks, "events_checked": rep.EventsChecked, "passed": rep.Passed()},
		Conform: rep,
	}
	if d := rep.Discrepancy; d != nil {
		out.Summary["discrepancy"] = d.Error()
		out.Trace = d.Trace
		if set.Shrink {
			oracle := shrink.DivergenceOracle(st.newCluster, d.Seed,
				replay.Options{IgnoreVars: st.Sys.IgnoreVars, Observe: st.Sys.Observe}, d.Step)
			minimize(out, st.Machine(), oracle, sinks)
		}
	}
	if ctx.Err() != nil {
		out.Summary["stop_reason"] = "canceled"
	}
	return out, nil
}

// RunConfirm is RunCheck followed by the implementation-level replay of the
// (possibly minimized) counterexample (§3.4). Finding nothing to confirm is
// an error; the outcome still carries the exploration.
func (st *SandTable) RunConfirm(ctx context.Context, set Settings, sinks Sinks) (*Outcome, error) {
	out, err := st.RunCheck(ctx, set, sinks)
	if err != nil {
		return out, err
	}
	if out.Trace == nil {
		return out, fmt.Errorf("no violation found to confirm (%d states)", out.Check.DistinctStates)
	}
	if out.Replay, err = st.Confirm(out.Trace, set, sinks); err != nil {
		return out, err
	}
	out.Summary["replay_steps"] = out.Replay.Steps
	out.Summary["confirmed"] = out.Replay.Confirmed
	if !out.Replay.Confirmed {
		out.Summary["divergence"] = out.Replay.Divergence.Describe()
	}
	return out, nil
}

// RunReplay replays a saved trace against a fresh implementation cluster,
// comparing every step — the §3.4 confirmation decoupled from the search. A
// replay is bounded by the trace's length, so the deadline does not apply;
// a ctx already canceled is honoured before it starts.
func (st *SandTable) RunReplay(ctx context.Context, tr *trace.Trace, set Settings, sinks Sinks) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := st.Confirm(tr, set, sinks)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Summary: map[string]any{"steps": res.Steps, "confirmed": res.Confirmed}, Trace: tr, Replay: res}
	if !res.Confirmed {
		out.Summary["divergence"] = res.Divergence.Describe()
	}
	return out, nil
}

// newCluster boots the session's implementation build.
func (st *SandTable) newCluster(seed int64) (*engine.Cluster, error) {
	return st.Sys.NewCluster(st.Config, st.ImplBugs, seed)
}
