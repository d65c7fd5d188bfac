// Command sandtable is the CLI for the SandTable workflow (Figure 1 of the
// paper): specification-level model checking, simulation, constraint
// ranking, conformance checking, and implementation-level bug confirmation
// for the integrated target systems.
//
// Usage:
//
//	sandtable check   -system gosyncobj [-bug GoSyncObj#4] [-nodes 2] ...
//	sandtable simulate -system craft -walks 100
//	sandtable rank    -system xraft
//	sandtable conform -system asyncraft -walks 500
//	sandtable confirm -system gosyncobj -bug GoSyncObj#4
//	sandtable serve   -addr localhost:8424 -artifacts ./jobs
//	sandtable list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sandtable-go/sandtable/internal/bugdb"
	"github.com/sandtable-go/sandtable/internal/explorer"
	"github.com/sandtable-go/sandtable/internal/integrations"
	"github.com/sandtable-go/sandtable/internal/obs"
	"github.com/sandtable-go/sandtable/internal/ranking"
	"github.com/sandtable-go/sandtable/internal/report"
	"github.com/sandtable-go/sandtable/internal/sandtable"
	"github.com/sandtable-go/sandtable/internal/shrink"
	"github.com/sandtable-go/sandtable/internal/spec"
	"github.com/sandtable-go/sandtable/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(args)
	case "simulate":
		err = runSimulate(args)
	case "rank":
		err = runRank(args)
	case "conform":
		err = runConform(args)
	case "confirm":
		err = runConfirm(args)
	case "replay":
		err = runReplay(args)
	case "report":
		err = runReport(args)
	case "serve":
		err = runServe(args)
	case "list":
		err = runList()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sandtable:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sandtable <check|simulate|rank|conform|confirm|replay|report|serve|list> [flags]`)
}

// cmdline is one subcommand invocation. Every run-layer flag is bound
// straight into set; beside it are the few flags that need resolving first
// (see settings), the front end's own — where progress, metrics, traces and
// reports go — and what start opens for the run.
type cmdline struct {
	fs  *flag.FlagSet
	set sandtable.Settings

	system     string
	maxCrashes int
	memBudget  string
	peers      string

	progress   time.Duration
	metricsOut string
	traceOut   string
	reportOut  string
	pprofAddr  string
	showTrace  bool   // check -trace
	out        string // check -o
	traceIn    string // replay -trace

	st        *sandtable.SandTable
	ctx       context.Context // canceled by the first SIGINT/SIGTERM
	sinks     sandtable.Sinks
	traceFile *os.File
	stopPprof func() error
}

// newCmdline starts subcommand op's flag set from the run layer's defaults
// and adds the session flags every subcommand shares.
func newCmdline(op string) *cmdline {
	c := &cmdline{fs: flag.NewFlagSet(op, flag.ExitOnError), set: sandtable.Defaults(op)}
	fs, set := c.fs, &c.set
	fs.StringVar(&c.system, "system", "gosyncobj", "target system ("+strings.Join(integrations.Names(), ", ")+")")
	fs.StringVar(&set.Bug, "bug", "", "check a single catalogued defect (e.g. GoSyncObj#4); default: the system's verification defect set")
	fs.IntVar(&set.Nodes, "nodes", 0, "cluster size (0 = system default)")
	fs.BoolVar(&set.Fixed, "fixed", false, "use the fully fixed build (fix validation)")
	fs.IntVar(&set.MaxTimeouts, "max-timeouts", 0, "override MaxTimeouts budget")
	fs.IntVar(&set.MaxRequests, "max-requests", 0, "override MaxRequests budget")
	fs.IntVar(&c.maxCrashes, "max-crashes", -1, "override MaxCrashes budget")
	fs.IntVar(&set.MaxDirtyCrashes, "max-dirty-crashes", 0, "override MaxDirtyCrashes budget (crash-consistency faults losing unsynced writes)")
	fs.IntVar(&set.MaxBuffer, "max-buffer", 0, "override MaxBuffer budget")
	fs.DurationVar(&set.Deadline, "deadline", set.Deadline, "wall-clock deadline: check/confirm stop exploring, simulate/conform stop starting walks")
	return c
}

// obsFlags adds the observability flags shared by the long-running
// subcommands (check, simulate, conform, confirm, replay).
func (c *cmdline) obsFlags() *cmdline {
	fs := c.fs
	fs.DurationVar(&c.progress, "progress", 0, "print TLC-style progress lines to stderr at this interval (0 = off)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the final metrics snapshot + result summary as JSON to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "write structured JSONL observability events to this file")
	fs.StringVar(&c.reportOut, "report", "", "render a post-run Markdown report (coverage, depth profile, counterexample) to this file (\"-\" = stdout)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof, expvar, and Prometheus /metrics on this address (e.g. localhost:6060)")
	return c
}

// panicFlags adds the engine's graceful-degradation policy for node panics
// during implementation-level replay.
func (c *cmdline) panicFlags() *cmdline {
	fs, set := c.fs, &c.set
	fs.BoolVar(&set.ToleratePanics, "tolerate-panics", false, "convert node panics into an injected crash+restart instead of aborting the run")
	fs.IntVar(&set.MaxAutoRestarts, "max-auto-restarts", set.MaxAutoRestarts, "per-node bound on automatic restarts after tolerated panics")
	fs.StringVar(&set.PanicCrashMode, "panic-crash-mode", set.PanicCrashMode, "store outcome applied on a tolerated panic: clean, lose-unsynced, or torn-batch")
	return c
}

func checkFlags() *cmdline {
	c := newCmdline("check").obsFlags()
	fs, set := c.fs, &c.set
	fs.IntVar(&set.Workers, "workers", 0, "BFS workers (0 = NumCPU)")
	fs.IntVar(&set.MaxStates, "max-states", 0, "stop after this many distinct states (0 = off; checked at block boundaries)")
	fs.StringVar(&set.Checkpoint, "checkpoint", "", "write periodic exploration snapshots to this directory (enables checkpointing)")
	fs.DurationVar(&set.CheckpointEvery, "checkpoint-every", 0, "minimum wall-clock time between snapshots (default 60s once -checkpoint is set)")
	fs.IntVar(&set.CheckpointStates, "checkpoint-states", 0, "also snapshot every N newly discovered distinct states")
	fs.BoolVar(&set.Resume, "resume", false, "resume from the snapshot in the -checkpoint directory instead of starting fresh")
	fs.StringVar(&c.memBudget, "mem-budget", "", "hard memory budget for exploration state (e.g. 8GiB); over budget the fingerprint set and frontier spill to disk (default: half of GOMEMLIMIT when that is set)")
	fs.StringVar(&set.SpillDir, "spill-dir", "", "directory for spill scratch files (default: the -checkpoint directory, else the system temp dir)")
	fs.BoolVar(&set.Shrink, "shrink", false, "minimize the counterexample with delta debugging (ddmin) before printing/writing it")
	fs.BoolVar(&c.showTrace, "trace", true, "print the counterexample trace")
	fs.StringVar(&c.out, "o", "", "write the counterexample trace as JSON (replay it with `sandtable replay -trace <file>`)")
	fs.StringVar(&c.peers, "peers", "", "comma-separated peer listen addresses (host:port, one per peer): run this process as one peer of a distributed exploration (see OPERATIONS.md)")
	fs.IntVar(&set.PeerID, "peer-id", 0, "this process's index into -peers (peer 0 coordinates and prints the counterexample)")
	fs.DurationVar(&set.PeerTimeout, "peer-timeout", 0, "cluster connection-establishment timeout (0 = 30s)")
	return c
}

func replayFlags() *cmdline {
	c := newCmdline("replay").obsFlags().panicFlags()
	c.fs.StringVar(&c.traceIn, "trace", "", "trace JSON written by `sandtable check -o`")
	return c
}

func simulateFlags() *cmdline {
	c := newCmdline("simulate").obsFlags()
	fs, set := c.fs, &c.set
	fs.IntVar(&set.Walks, "walks", set.Walks, "number of random walks")
	fs.IntVar(&set.Depth, "depth", set.Depth, "walk depth bound (0 = until deadlock)")
	fs.Int64Var(&set.Seed, "seed", set.Seed, "base seed")
	fs.BoolVar(&set.Distinct, "distinct", false, "track distinct states across walks in a shared fingerprint set (coverage measurement)")
	fs.BoolVar(&set.Shrink, "shrink", false, "minimize the first violating walk with delta debugging (ddmin)")
	return c
}

func rankFlags() *cmdline {
	c := newCmdline("rank")
	c.fs.IntVar(&c.set.Walks, "walks", 32, "random walks per (config, constraint) pair")
	return c
}

func conformFlags() *cmdline {
	c := newCmdline("conform").obsFlags()
	fs, set := c.fs, &c.set
	fs.IntVar(&set.Walks, "walks", set.Walks, "random traces to replay")
	fs.IntVar(&set.Depth, "depth", set.Depth, "trace depth bound")
	fs.Int64Var(&set.Seed, "seed", set.Seed, "base seed")
	fs.IntVar(&set.Workers, "workers", set.Workers, "parallel replay workers (each walk boots its own cluster; the first discrepancy is identical for every worker count)")
	fs.BoolVar(&set.Shrink, "shrink", false, "minimize the discrepancy trace with delta debugging (ddmin) before printing it")
	return c
}

func confirmFlags() *cmdline {
	c := newCmdline("confirm").obsFlags().panicFlags()
	c.fs.BoolVar(&c.set.Shrink, "shrink", false, "minimize the counterexample with delta debugging (ddmin) before replaying it at the implementation level")
	return c
}

// settings resolves the parsed flags into the run layer's settings: the
// -max-crashes sentinel, the -peers list, and the memory budget. Without
// -mem-budget the run defers to the GOMEMLIMIT environment variable: half
// the runtime's soft limit goes to exploration state, leaving the rest for
// transient expansion buffers, so a process capped by its operator spills
// instead of thrashing the GC. A cluster peer takes no budget (partitioning
// already divides the footprint), so the fallback does not apply to it and
// an explicit -mem-budget is an error.
func (c *cmdline) settings() (sandtable.Settings, error) {
	set := c.set
	if c.maxCrashes >= 0 {
		set.MaxCrashes = &c.maxCrashes
	}
	for _, a := range strings.Split(c.peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			set.Peers = append(set.Peers, a)
		}
	}
	if set.Resume && set.Checkpoint == "" {
		return set, fmt.Errorf("-resume requires -checkpoint <dir>")
	}
	if len(set.Peers) == 0 {
		var err error
		set.MemBudget, err = resolveMemBudget(c.memBudget)
		return set, err
	}
	if c.memBudget != "" {
		return set, fmt.Errorf("-mem-budget is not supported with -peers (partitioning already divides the footprint)")
	}
	return set, nil
}

// resolveMemBudget turns a -mem-budget flag into a byte count; an empty flag
// defers to half of GOMEMLIMIT when that is set (see settings). Returns 0
// (no budget) when neither is.
func resolveMemBudget(flagVal string) (int64, error) {
	if flagVal != "" {
		n, err := explorer.ParseByteSize(flagVal)
		if err != nil {
			return 0, fmt.Errorf("-mem-budget: %w", err)
		}
		return n, nil
	}
	env := os.Getenv("GOMEMLIMIT")
	if env == "" || env == "off" {
		return 0, nil
	}
	n, err := explorer.ParseByteSize(env)
	if err != nil {
		// GOMEMLIMIT is the runtime's contract, not ours; an unparsable
		// value is its problem and not a reason to refuse the run.
		return 0, nil
	}
	return n / 2, nil
}

// session parses args, resolves the settings in place and builds the session
// they describe.
func (c *cmdline) session(args []string) error {
	c.fs.Parse(args)
	var err error
	if c.set, err = c.settings(); err != nil {
		return fmt.Errorf("%s: %w", c.fs.Name(), err)
	}
	sys, err := integrations.Get(c.system)
	if err != nil {
		return err
	}
	c.st, err = sandtable.NewSession(sys, c.set)
	return err
}

// start is session plus the observability sinks and the run's context. The
// first SIGINT/SIGTERM cancels the run cooperatively: it stops at the next
// safepoint with "stop: canceled" (a cluster peer takes the whole cluster
// with it at the next level barrier), the summary and artifacts are written
// as usual and the last checkpoint stays resumable. Unregistering on that
// signal restores the default action, so a second one exits immediately.
func (c *cmdline) start(args []string) (*cmdline, error) {
	if err := c.session(args); err != nil {
		return nil, err
	}
	c.sinks = sandtable.Sinks{Metrics: obs.NewRegistry()}
	if c.progress > 0 {
		c.sinks.Progress, c.sinks.ProgressInterval = obs.StderrProgress(), c.progress
	}
	if c.traceOut != "" {
		var err error
		if c.traceFile, err = os.Create(c.traceOut); err != nil {
			return nil, err
		}
		c.sinks.Tracer = obs.NewTracer(c.traceFile)
	}
	if c.pprofAddr != "" {
		addr, stop, err := obs.ServeDebug(c.pprofAddr, c.sinks.Metrics)
		if err != nil {
			return nil, c.finish(nil, err)
		}
		c.stopPprof = stop
		fmt.Fprintf(os.Stderr, "pprof: serving /debug/pprof and /debug/vars on http://%s\n", addr)
	}
	ctx, unregister := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, func() {
		unregister()
		fmt.Fprintln(os.Stderr, "sandtable: interrupted — stopping at the next safepoint (signal again to exit immediately)")
	})
	c.ctx = ctx
	return c, nil
}

// finish reports the outcome's warnings on stderr and finalises the
// observability session: writes the metrics artifact when -metrics-out is
// set, renders the Markdown report when -report is set, flushes and closes
// the JSONL trace, and stops the pprof server. out may be nil (the run
// failed before producing one); runErr, the run's own error, wins over any
// artifact error.
func (c *cmdline) finish(out *sandtable.Outcome, runErr error) error {
	firstErr := runErr
	if out == nil {
		out = &sandtable.Outcome{}
	}
	for _, w := range out.Warnings {
		fmt.Fprintln(os.Stderr, w)
	}
	var snap map[string]any
	if c.metricsOut != "" || c.reportOut != "" {
		snap = out.Metrics(c.sinks.Metrics)
	}
	if c.metricsOut != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err == nil {
			err = os.WriteFile(c.metricsOut, append(buf, '\n'), 0o644)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", c.metricsOut)
		} else if firstErr == nil {
			firstErr = fmt.Errorf("metrics-out: %w", err)
		}
	}
	if c.reportOut != "" {
		d := &report.Data{Title: "sandtable " + strings.Join(os.Args[1:], " "), Source: "in-memory run", Metrics: snap, Cover: out.Cover}
		if err := report.WriteFile(c.reportOut, d); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("report: %w", err)
			}
		} else if c.reportOut != "-" {
			fmt.Fprintf(os.Stderr, "report written to %s\n", c.reportOut)
		}
	}
	if c.traceFile != nil {
		err := c.sinks.Tracer.Flush()
		fmt.Fprintf(os.Stderr, "%d trace events written to %s\n", c.sinks.Tracer.Events(), c.traceFile.Name())
		if cerr := c.traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("trace-out: %w", err)
		}
	}
	if c.stopPprof != nil {
		c.stopPprof()
	}
	return firstErr
}

// printShrink prints the reduction summary of a successful -shrink.
func printShrink(res *shrink.Result) {
	if res != nil {
		fmt.Printf("shrink: %d -> %d events (%d removed, %d candidate(s) evaluated, %d spec-invalid)\n",
			res.OriginalLen, res.MinimizedLen, res.Removed, res.Attempts, res.Invalid)
	}
}

func runCheck(args []string) error {
	c, err := checkFlags().start(args)
	if err != nil {
		return err
	}
	out, err := c.st.RunCheck(c.ctx, c.set, c.sinks)
	if err != nil {
		return c.finish(out, err)
	}
	res, set := out.Check, c.set
	if len(set.Peers) > 0 {
		fmt.Printf("peer %d/%d: joined cluster, exploring fingerprint shard %d\n", set.PeerID, len(set.Peers), set.PeerID)
	}
	if res.Resumed {
		fmt.Printf("resumed from %s\n", set.Checkpoint)
	}
	fmt.Printf("explored %d distinct states (max depth %d) in %s — %.0f states/s, dedup %.1f%% (%d hits), peak queue %d, stop: %s\n",
		res.DistinctStates, res.MaxDepth, res.Duration.Round(time.Millisecond), res.StatesPerSecond(),
		100*res.DedupRatio(), res.DedupHits, res.MaxQueueLen, res.StopReason)
	if nf := res.Cover.NeverFired(); len(nf) > 0 {
		fmt.Printf("coverage: %d declared action(s) never fired: %s\n", len(nf), strings.Join(nf, ", "))
	}
	if res.Checkpoints > 0 {
		fmt.Printf("%d checkpoint(s) written to %s (resume with -checkpoint %s -resume)\n", res.Checkpoints, set.Checkpoint, set.Checkpoint)
	}
	if set.MemBudget > 0 {
		s := c.sinks.Metrics.Snapshot()
		spilled, _ := s["fpset.spilled_entries"].(int64)
		fbytes, _ := s["explorer.frontier_spill_bytes"].(int64)
		if spilled > 0 || fbytes > 0 {
			fmt.Printf("memory budget %.1f MiB: spilled %d fingerprints and %.1f MiB of frontier to disk\n",
				float64(set.MemBudget)/(1<<20), spilled, float64(fbytes)/(1<<20))
		}
	}
	v := out.Violation
	if v == nil {
		fmt.Println("no invariant violation found")
		return c.finish(out, nil)
	}
	fmt.Printf("VIOLATION: %s at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
	if out.Trace == nil {
		// Only the coordinator of a cluster holds the counterexample.
		return c.finish(out, nil)
	}
	printShrink(out.Shrink)
	if c.showTrace {
		fmt.Println(out.Trace.Format(false))
	}
	if c.out != "" {
		stop := c.sinks.Metrics.StartPhase("write-trace")
		err := sandtable.WriteTrace(c.out, out.Trace)
		stop()
		if err != nil {
			return c.finish(out, err)
		}
		fmt.Printf("trace written to %s\n", c.out)
	}
	return c.finish(out, nil)
}

// runReplay replays a saved trace against a fresh implementation cluster,
// comparing every step (the §3.4 confirmation, decoupled from the search).
func runReplay(args []string) error {
	c, err := replayFlags().start(args)
	if err != nil {
		return err
	}
	if c.traceIn == "" {
		return c.finish(nil, fmt.Errorf("replay: -trace is required"))
	}
	f, err := os.Open(c.traceIn)
	if err != nil {
		return c.finish(nil, err)
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		return c.finish(nil, err)
	}
	out, err := c.st.RunReplay(c.ctx, tr, c.set, c.sinks)
	if err != nil {
		return c.finish(out, err)
	}
	if out.Replay.Confirmed {
		fmt.Printf("CONFIRMED: %d events replayed deterministically, every step conforming\n", out.Replay.Steps)
	} else {
		fmt.Printf("replay diverged: %s\n", out.Replay.Divergence.Describe())
	}
	return c.finish(out, nil)
}

func runSimulate(args []string) error {
	c, err := simulateFlags().start(args)
	if err != nil {
		return err
	}
	out, err := c.st.RunSimulate(c.ctx, c.set, c.sinks)
	if err != nil {
		return c.finish(out, err)
	}
	agg := out.Sim
	fmt.Printf("walks=%d branch-coverage=%d event-diversity=%d max-depth=%d mean-depth=%.1f violations=%d elapsed=%s\n",
		agg.Walks, agg.BranchCoverage, agg.EventDiversity, agg.MaxDepth, agg.MeanDepth, agg.Violations, agg.TotalElapsed.Round(time.Millisecond))
	if c.set.Distinct {
		visits := int(agg.MeanDepth*float64(agg.Walks)) + agg.Walks
		fmt.Printf("distinct states across walks: %d (%.1f%% of ~%d visits fresh)\n",
			out.Distinct, 100*float64(agg.DistinctStates)/float64(max(1, visits)), visits)
	}
	if out.Violation != nil {
		fmt.Printf("first violating walk: %v\n", out.Violation)
		if c.set.Shrink {
			printShrink(out.Shrink)
			fmt.Println(out.Trace.Format(false))
		}
	}
	return c.finish(out, nil)
}

func runRank(args []string) error {
	c := rankFlags()
	if err := c.session(args); err != nil {
		return err
	}
	configs := []spec.Config{
		{Name: "n2w2", Nodes: 2, Workload: []string{"v1", "v2"}},
		{Name: "n3w2", Nodes: 3, Workload: []string{"v1", "v2"}},
	}
	base := c.st.Budget
	budgets := []spec.Budget{base}
	lighter := base
	lighter.Name = base.Name + "-light"
	lighter.MaxTimeouts = max(1, base.MaxTimeouts-2)
	lighter.MaxCrashes = 0
	lighter.MaxDirtyCrashes = 0
	budgets = append(budgets, lighter, base.Double())
	r := c.st.Rank(configs, budgets, ranking.Options{WalksPerPair: c.set.Walks, Seed: 1})
	fmt.Print(r.Format())
	return nil
}

func runConform(args []string) error {
	c, err := conformFlags().start(args)
	if err != nil {
		return err
	}
	out, err := c.st.RunConform(c.ctx, c.set, c.sinks)
	if err != nil {
		return c.finish(out, err)
	}
	rep := out.Conform
	fmt.Printf("conformance: %d walks, %d events checked in %s\n", rep.Walks, rep.EventsChecked, rep.Duration.Round(time.Millisecond))
	if rep.Passed() {
		fmt.Println("PASS: no spec/impl discrepancy found")
		return c.finish(out, nil)
	}
	fmt.Printf("DISCREPANCY: %v\n", rep.Discrepancy)
	printShrink(out.Shrink)
	fmt.Println("trace prefix:")
	fmt.Println(out.Trace.Format(false))
	return c.finish(out, nil)
}

func runConfirm(args []string) error {
	c, err := confirmFlags().start(args)
	if err != nil {
		return err
	}
	out, err := c.st.RunConfirm(c.ctx, c.set, c.sinks)
	if out != nil && out.Violation != nil {
		v := out.Violation
		fmt.Printf("violation: %s at depth %d: %v\n", v.Invariant, v.Depth, v.Err)
		printShrink(out.Shrink)
	}
	if err != nil {
		return c.finish(out, err)
	}
	if out.Replay.Confirmed {
		fmt.Printf("CONFIRMED at the implementation level (%d events replayed, every step conforming)\n", out.Replay.Steps)
	} else {
		fmt.Printf("NOT confirmed — replay diverged: %s\n", out.Replay.Divergence.Describe())
	}
	return c.finish(out, nil)
}

// runReport renders a post-run Markdown report from observability artifacts
// written by earlier runs (-metrics-out and/or -trace-out) — the offline
// path; `-report` on check/simulate/conform/confirm/replay renders the same
// report in-process at the end of the run.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	metrics := fs.String("metrics", "", "metrics JSON written by -metrics-out")
	traceF := fs.String("trace", "", "JSONL events written by -trace-out")
	out := fs.String("o", "", "output Markdown file (default stdout)")
	title := fs.String("title", "", "report title (default \"SandTable run report\")")
	fs.Parse(args)
	if *metrics == "" && *traceF == "" {
		return fmt.Errorf("report: at least one of -metrics or -trace is required")
	}
	d, err := report.FromFiles(*metrics, *traceF)
	if err != nil {
		return err
	}
	if *title != "" {
		d.Title = *title
	}
	if err := report.WriteFile(*out, d); err != nil {
		return err
	}
	if *out != "" && *out != "-" {
		fmt.Printf("report written to %s\n", *out)
	}
	return nil
}

func runList() error {
	fmt.Println("integrated systems:")
	for _, name := range integrations.Names() {
		fmt.Printf("  %-11s defects:", name)
		for _, b := range bugdb.ForSystem(name) {
			fmt.Printf(" %s", b.ID)
		}
		for _, b := range bugdb.Extensions {
			if b.System == name {
				fmt.Printf(" %s (extension)", b.ID)
			}
		}
		fmt.Println()
	}
	return nil
}
